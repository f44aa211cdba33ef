"""Boundary-smoothing engine: basis signals, operator family, smoothing recursion.

The smoother cancels the value and first-V-derivative gaps between
consecutive symbol blocks by adding a low-rank "smooth signal" built from
spectral derivatives of a synthesis waveform.  "Derivative" throughout means
the DFT-domain derivative with factor (j*2*pi*l/N)^v taken over bins
l = 0..N-1, i.e. the analytic extension with positive-frequency exponentials;
all diagnostics and tests honor this convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filterbank import COND_LIMIT, PrototypeFilter, SingularMatrixError, TransmitMatrix
from .params import WaveformParams

__all__ = [
    "BasisSet",
    "NcOperators",
    "synthesis_waveform",
    "build_basis",
    "build_nc_operators",
    "smooth_stream",
    "coefficient_scan",
    "coefficient_stream",
    "boundary_mismatch_dft",
    "derivative_scales",
]


def synthesis_waveform(g: PrototypeFilter, p: WaveformParams) -> tuple[np.ndarray, np.ndarray]:
    """Sum of all K frequency-shifted prototypes and its N-point DFT.

    The geometric sum over subcarriers collapses to K*g(n) on the samples
    where n is a multiple of K and zero elsewhere.
    """
    N, K = p.N, p.K
    n = np.arange(N)
    f0 = np.where(n % K == 0, K * g.samples, 0.0)
    return f0, np.fft.fft(f0)


@dataclass(frozen=True)
class BasisSet:
    """The basis signals of orders 0..V on the symbol core, and their spectrum.

    ``Q`` (N x (V+1)) holds f_v(n) for n = 0..N-1, where f_v is the order-v
    spectral derivative of the synthesis waveform, read from the CP start
    (sample n of the core is periodic index n + n_cp).  ``F0`` is the N-point
    DFT of the synthesis waveform; the boundary matrix P_f takes its entries,
    orders up to 2V, from the moments of F0.
    """

    Q: np.ndarray
    F0: np.ndarray


def build_basis(g: PrototypeFilter, p: WaveformParams) -> BasisSet:
    """Evaluate basis orders 0..V by inverse DFT of the derivative spectrum."""
    N, V, n_cp = p.N, p.V, p.n_cp
    _, F0 = synthesis_waveform(g, p)
    fac = 2j * np.pi * np.arange(N) / N
    # f_v on the periodic grid; sample index n maps to (n + n_cp) mod N
    core_idx = (np.arange(N) + n_cp) % N
    Q = np.stack([np.fft.ifft(fac**v * F0)[core_idx] for v in range(V + 1)], axis=1)
    return BasisSet(Q=Q, F0=F0)


def _equilibrated_inverse(P_f: np.ndarray) -> tuple[np.ndarray, float]:
    """(P_f^{-1}, cond) by a pivoted LU solve with diagonal equilibration.

    Derivative orders up to 2V make the raw entries span many decades; the
    symmetric scaling by the diagonal keeps high orders usable in double
    precision.  ``cond`` is the exact 1-norm condition number of the scaled
    matrix; above ``COND_LIMIT``, or when it is infinite or NaN, the matrix
    counts as singular.
    """
    d = np.abs(np.diag(P_f)).astype(float)
    d[d == 0] = 1.0
    scale = 1.0 / np.sqrt(d)
    scaled = P_f * np.outer(scale, scale)
    cond = float(np.linalg.cond(scaled, 1))
    if not cond <= COND_LIMIT:
        raise SingularMatrixError("boundary matrix", cond)
    eye = np.eye(scale.size, dtype=np.complex128)
    return np.linalg.solve(scaled, eye * scale[:, None]) * scale[:, None], cond


@dataclass(frozen=True)
class NcOperators:
    """Precomputed smoothing/decoding operator family for one configuration.

    Naming follows the construction: P_f matches derivative orders at the
    block boundary, P_1/P_2 evaluate the outgoing/incoming boundary
    derivatives from data vectors.  ``tm`` is the transmit matrix the set
    was built from; it applies A, A^{-1} and A^H through its polyphase
    factor, so the set holds no N x N array.  The rank-(V+1) N x N
    operators of the construction are kept only as their factors: the
    receiver's smooth-signal reconstruction P_w = Q P_f^{-1} P_2, the
    idempotent P_tilde = A^{-1} P_w = gain P_2, and the propagator
    P_hat = gain P_1.
    """

    params: WaveformParams
    basis: BasisSet
    tm: TransmitMatrix      # modulates and demodulates through its polyphase factor
    is_unitary: bool
    P_f: np.ndarray
    P_f_inv: np.ndarray
    P_1: np.ndarray
    P_2: np.ndarray
    # low-rank factors reused by the smoothing recursion and the receiver
    A_inv_Q: np.ndarray     # N x (V+1)
    gain: np.ndarray        # N x (V+1), A_inv_Q @ P_f_inv
    pf_cond: float

    @property
    def V(self) -> int:
        return self.params.V


def _relative_residual(x: np.ndarray, y: np.ndarray) -> float:
    ref = max(np.linalg.norm(x), np.linalg.norm(y))
    return float(np.linalg.norm(x - y) / ref) if ref > 0 else 0.0


def _gram_residual(GL: np.ndarray, X: np.ndarray, Y: np.ndarray, GR: np.ndarray) -> float:
    """Relative residual of F X G against F Y G, given GL = F^H F and GR = G G^H.

    ||F Z G||_F^2 = tr(Z^H GL Z GR), so a rank-(V+1) N x N identity is
    checked without forming any N x N product.
    """

    def norm(Z):
        return math.sqrt(max(float(np.real(np.trace(Z.conj().T @ GL @ Z @ GR))), 0.0))

    ref = max(norm(X), norm(Y))
    return norm(X - Y) / ref if ref > 0 else 0.0


def identity_tolerance(V: int) -> float:
    """Tolerance of every identity but ``unitarity``; relaxed for the
    worst-conditioned orders."""
    return 1e-6 if V >= 5 else 1e-9


def operator_identity_residuals(ops: NcOperators) -> dict[str, tuple[float, float]]:
    """(residual, tolerance) of each algebraic identity the operator set satisfies.

    Only the identities that hold for the set are listed, so the build
    check and the validation suite read the same policy:

    - every set: ``pf_symmetric`` (P_f = P_f^T), ``pf_product``
      (P_2 A^{-1} Q = P_f), ``idempotent`` (P_tilde^2 = P_tilde),
      ``decode_fixed`` and ``decode_basis`` (the decode fixed point), and
      ``trace_rank`` (|tr P_tilde - (V+1)|, absolute; idempotency makes the
      trace the rank);
    - when A is unitary or the CP length is a multiple of K: ``p1p2_gram``
      (P_1 P_1^H = P_2 P_2^H);
    - when the set claims a unitary A: ``unitarity``
      (||A^H A - I||_F / sqrt(N), from the singular values sqrt(K)|Zg|; at
      1e-9 for every V, as it involves no derivative order) and
      ``power_trace`` (tr{P_hat P_hat^H + P_tilde P_tilde^H} against
      2(V+1), relative).

    With L = gain, P_tilde = L P_2 and P_w = (Q P_f^{-1}) P_2, the N x N
    identities reduce to (V+1) x (V+1) Gram forms through T = P_2 L:
    P_tilde^2 = L T P_2, P_w A^{-1} Q P_f^{-1} P_2 = Q P_f^{-1} T P_2 and
    P_w A^{-1} Q P_f^{-1} = Q P_f^{-1} T.
    """
    p, V = ops.params, ops.V
    tol = identity_tolerance(V)
    L, P_2 = ops.gain, ops.P_2
    QF = ops.basis.Q @ ops.P_f_inv
    T = P_2 @ L
    I = np.eye(V + 1)
    LhL = L.conj().T @ L
    P2P2h = P_2 @ P_2.conj().T
    P1P1h = ops.P_1 @ ops.P_1.conj().T
    res = {
        "pf_symmetric": (_relative_residual(ops.P_f, ops.P_f.T), tol),
        "pf_product": (_relative_residual(P_2 @ ops.A_inv_Q, ops.P_f), tol),
        "idempotent": (_gram_residual(LhL, T, I, P2P2h), tol),
        "decode_fixed": (_gram_residual(QF.conj().T @ QF, I, T, P2P2h), tol),
        "decode_basis": (_gram_residual(QF.conj().T @ QF, T, I, I), tol),
    }
    if ops.is_unitary or p.n_cp % p.K == 0:
        res["p1p2_gram"] = (_relative_residual(P1P1h, P2P2h), tol)
    if ops.is_unitary:
        u = np.linalg.norm(p.K * np.abs(ops.tm.polyphase) ** 2 - 1.0) / np.sqrt(p.N)
        res["unitarity"] = (float(u), 1e-9)
    res["trace_rank"] = (float(abs(np.trace(T) - (V + 1))), tol)
    if ops.is_unitary:
        power = np.trace(P1P1h @ LhL) + np.trace(P2P2h @ LhL)
        res["power_trace"] = (abs(float(np.real(power)) - 2 * (V + 1)) / (2 * (V + 1)), tol)
    return res


#: highest derivative order whose operator set passes the identity check of
#: :func:`build_nc_operators`.  ``pf_cond`` grows about 30 times per order and
#: barely with K, M, beta or n_cp: 8.6e9 at V = 7, 2.6e11 at V = 8, above
#: ``COND_LIMIT`` from V = 9.  Over N = 8..6144 and beta in [0, 1], the worst
#: residual is at most 0.43 of the tolerance at V = 7 and exceeds it at
#: V = 8 on most configurations.
MAX_ORDER = 7


def build_nc_operators(
    tm: TransmitMatrix,
    basis: BasisSet,
    p: WaveformParams,
    *,
    is_unitary: bool = False,
    check: bool = True,
) -> NcOperators:
    """Populate the full operator family and verify it at build time.

    The build fails loudly if the boundary matrix is numerically singular or,
    with ``check``, if any residual of :func:`operator_identity_residuals`
    exceeds its tolerance; ``is_unitary`` adds the unitary identities, so a
    wrong claim fails ``unitarity``.
    """
    N, V, n_cp = p.N, p.V, p.n_cp
    l = np.arange(N)
    fac = 2j * np.pi * l / N
    B = np.vstack([fac**v for v in range(V + 1)]) / N
    phi_diag = np.exp(-2j * np.pi * n_cp * l / N)
    # Row v of B @ F is the DFT of row v of B; same for the phased variant.
    # Each P = F_B A is taken as (A^H F_B^H)^H, a Gabor analysis of V+1 rows.
    P_1 = tm.adjoint(np.fft.fft(B, axis=1).conj().T).conj().T
    P_2 = tm.adjoint(np.fft.fft(B * phi_diag, axis=1).conj().T).conj().T
    # P_f entries are the boundary values f_{v+w}(-n_cp) = (1/N) sum fac^{v+w} F0
    moments = np.array([np.sum(fac**o * basis.F0) for o in range(2 * V + 1)]) / N
    P_f = moments[np.add.outer(np.arange(V + 1), np.arange(V + 1))]
    P_f_inv, pf_cond = _equilibrated_inverse(P_f)
    A_inv_Q = tm.demodulate(basis.Q)
    gain = A_inv_Q @ P_f_inv
    ops = NcOperators(
        params=p,
        basis=basis,
        tm=tm,
        is_unitary=is_unitary,
        P_f=P_f,
        P_f_inv=P_f_inv,
        P_1=P_1,
        P_2=P_2,
        A_inv_Q=A_inv_Q,
        gain=gain,
        pf_cond=pf_cond,
    )
    if check:
        for name, (value, tol) in operator_identity_residuals(ops).items():
            if value > tol:
                raise AssertionError(
                    f"operator identity {name} residual {value:.3e} exceeds {tol:.0e} "
                    f"(K={p.K}, M={p.M}, beta={p.beta}, V={V}, n_cp={n_cp})"
                )
    return ops


# ---------------------------------------------------------------------------
# smoothing recursion


def _scan(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve b_i = S b_{i-1} + v_i from b_{-1} = 0; rhs is v, (V+1, count, cols).

    Recursive doubling: after the step of shift h, b_i holds
    sum_{m < 2h, m <= i} S^m v_{i-m}, so ceil(log2 count) steps, each one
    product of S^h with the whole stream, solve every symbol at once; once
    S^h is exactly zero no later step adds anything, so the scan stops.  A
    C-contiguous rhs is overwritten with the solution.
    """
    V1, count, cols = rhs.shape
    flat = rhs.reshape(V1, count * cols)  # symbol i is columns i*cols..(i+1)*cols-1
    power, shift = S, cols
    while shift < count * cols and power.any():
        flat[:, shift:] += power @ flat[:, :-shift]
        power, shift = power @ power, 2 * shift
    return flat.reshape(V1, count, cols)


def coefficient_scan(
    ops: NcOperators, PD: np.ndarray, carry: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Basis coefficients of a stream from its stacked thin products [P_1 D; P_2 D].

    The recursion is b_i = P_f^{-1}(c_{i-1} - (P_2 D)_i) with the carry
    c_i = P_1 d_bar_i = (P_1 D)_i + G b_i, G = P_1 A^{-1} Q, since
    d_bar_i = d_i + A^{-1} Q b_i.  ``carry`` is c_{-1}, or None at the start
    of a stream, whose first symbol is sent unsmoothed (b_0 = 0).  PD stacks
    P_1 D over P_2 D, (2, V+1, count) for one stream or (2, V+1, count, S)
    for S parallel streams; returns B of shape (V+1, count[, S]) and the
    carry for the next chunk.
    An empty chunk (count 0) returns an empty B and ``carry`` as given.

    Written as b_i = S b_{i-1} + v_i with S = P_f^{-1} G, the recursion is a
    linear scan, solved by recursive doubling (Hillis and Steele 1986): the
    step of shift h adds S^h b_{i-h} to every b_i at once, and S^h is
    squared between steps, so ceil(log2 count) products of the whole chunk
    solve it and no factor is built or held across calls.  The scan adds
    S b_{i-1} and v_i after P_f^{-1} has amplified each, which costs digits
    when P_f is ill conditioned, so the solve is followed by exactly one
    round of iterative refinement (Higham 2002, ch. 12): the residual of
    each step is formed as the step itself forms it, difference first, and
    its own scan is added to B.  Starting from B = 0, the first
    residual is v itself, so solve and refinement are the same round.

    With no CP (n_cp = 0) the basis is periodic over the block and the
    spectral radius of S is exactly 1, so the recursion is undamped; the
    experiment configs reject a smoothed waveform there.
    """
    PD = np.asarray(PD, dtype=np.complex128)
    thin = PD.shape[1:]
    V1, count = thin[:2]
    if not count:
        return np.zeros(thin, dtype=np.complex128), carry
    P1D, P2D = PD.reshape(2, V1, count, -1)
    G = ops.P_1 @ ops.A_inv_Q
    S = ops.P_f_inv @ G
    B = np.zeros_like(P2D)
    for _ in range(2):
        prev = np.empty_like(P2D)
        prev[:, 1:] = P1D[:, :-1] + np.tensordot(G, B[:, :-1], axes=1)
        if carry is None:
            prev[:, :1] = P2D[:, :1]  # b_0 = 0: no residual at the head
        else:
            prev[:, 0] = np.reshape(carry, (V1, -1))
        B += _scan(S, np.tensordot(ops.P_f_inv, prev - P2D, axes=1) - B)
    out = P1D[:, -1] + G @ B[:, -1]
    return B.reshape(thin), out.reshape(thin[:1] + thin[2:])


#: multiply-adds per column block of a thin product; see _matmul_blocks
_BLOCK_MACS = 2**16


def _matmul_blocks(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b, formed in blocks of columns that OpenBLAS keeps on the calling thread.

    OpenBLAS forms a complex product on one thread when it has at most
    ``_BLOCK_MACS`` multiply-adds (its default GEMM_MULTITHREAD_THRESHOLD)
    or fewer than 32 columns, too few to give two threads 16 each.  A block
    is the wider of the two, a multiple of 16 columns, so every block starts
    where the whole product's kernel would start a tile; a lone last column,
    which numpy would send to a matrix-vector routine, joins the block
    before it.  A second thread gains nothing on these thin products, and
    between calls it spins on a CPU of its own.

    The threshold and the bit-equality with the whole product are stated
    for OpenBLAS 0.3.31 (numpy 2.4).  Another build, such as the numpy 2.0
    CI job's, may thread or round otherwise; the tests check the call
    shapes and a value bound there, not the thread count or the bits.
    """
    n = b.shape[1]
    if out is None:
        out = np.empty((a.shape[0], n), dtype=np.result_type(a, b))
    width = max(16, _BLOCK_MACS // (a.shape[0] * a.shape[1]) // 16 * 16)
    stops = list(range(width, n, width)) + [n]
    if len(stops) > 1 and n - stops[-2] == 1:
        del stops[-2]
    lo = 0
    for hi in stops:
        np.matmul(a, b[:, lo:hi], out=out[:, lo:hi])
        lo = hi
    return out


def coefficient_stream(
    ops: NcOperators, D: np.ndarray, carry: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Basis coefficients b_i = P_f^{-1}(P_1 d_bar_{i-1} - P_2 d_i) of a stream.

    D holds one symbol per column, (N, count), or S parallel streams,
    (N, count, S).  Forms the thin products P_1 D and P_2 D as one product
    of the stacked rows [P_1; P_2], on the calling thread
    (:func:`_matmul_blocks`), and runs :func:`coefficient_scan` on it; see
    there for ``carry`` and the recursion.  Returns (B, carry) with B of
    shape (V+1, count[, S]).
    """
    D = np.asarray(D, dtype=np.complex128)
    PD = _matmul_blocks(np.vstack((ops.P_1, ops.P_2)), D.reshape(D.shape[0], -1))
    return coefficient_scan(ops, PD.reshape((2, ops.V + 1) + D.shape[1:]), carry)


def smooth_stream(
    ops: NcOperators, D: np.ndarray, carry: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smooth a whole stream of vectorized symbols (columns of D).

    Returns (X_bar, B, carry): the smoothed cores X_bar = A D + Q B, with
    A D applied through the Gabor structure, the basis coefficients B
    (V+1, count), and the carry that continues the stream (see
    :func:`coefficient_stream`).  The data-domain smooth contributions are
    A^{-1} Q B = ``ops.A_inv_Q @ B``.
    """
    D = np.asarray(D, dtype=np.complex128)
    B, carry = coefficient_stream(ops, D, carry)
    X_bar = ops.tm.modulate(D)
    # modulate stores one symbol per row (X_bar.T is contiguous); add Q B
    # in that layout, where a column-wise add would stride through memory
    rows = X_bar.T
    rows += B.T @ ops.basis.Q.T
    return X_bar, B, carry


# ---------------------------------------------------------------------------
# boundary diagnostics


def boundary_mismatch_dft(
    x_prev: np.ndarray, x_i: np.ndarray, V: int, n_cp: int
) -> np.ndarray:
    """Independent evaluation of the derivative gaps from raw sample blocks.

    Works directly on the DFTs of the two cores, bypassing the stored
    P_1/P_2 operators; used to cross-check the operator path.
    """
    x_prev = np.asarray(x_prev, dtype=np.complex128)
    x_i = np.asarray(x_i, dtype=np.complex128)
    N = x_prev.size
    fac = 2j * np.pi * np.arange(N) / N
    Xp = np.fft.fft(x_prev)
    Xi = np.fft.fft(x_i)
    phase = np.exp(-2j * np.pi * n_cp * np.arange(N) / N)
    out = np.empty(V + 1, dtype=np.complex128)
    for v in range(V + 1):
        out[v] = (np.sum(fac**v * Xp) - np.sum(fac**v * phase * Xi)) / N
    return out


def derivative_scales(x: np.ndarray, V: int) -> np.ndarray:
    """Magnitude scale of each derivative order, for relative gap tolerances.

    Order v gaps are compared against the evaluated order-v derivative
    magnitude of the block itself (its DFT-domain derivative at the wrap
    point), floored by the max-derivative norm to avoid zero division.
    """
    x = np.asarray(x, dtype=np.complex128)
    N = x.size
    fac = 2j * np.pi * np.arange(N) / N
    X = np.fft.fft(x)
    scales = np.empty(V + 1)
    for v in range(V + 1):
        deriv = np.fft.ifft(fac**v * X)
        scales[v] = np.max(np.abs(deriv))
    return scales

