"""Boundary-smoothing engine: basis signals, operator family, smoothing recursion.

The smoother cancels the value and first-V-derivative gaps between
consecutive symbol blocks by adding a low-rank "smooth signal" built from
spectral derivatives of a synthesis waveform.  "Derivative" throughout means
the DFT-domain derivative with factor (j*2*pi*l/N)^v taken over bins
l = 0..N-1, i.e. the analytic extension with positive-frequency exponentials;
all diagnostics and tests honor this convention.

The V+1 constraints are written in the rows p_0..p_V, the real polynomials
in x_l = 2*pi*l/N orthonormal over the N bins, not in the monomials
(j x_l)^v: row v has degree v, so rows 0..V span the same constraints, and
the smooth signal Q B is the same, while the boundary matrix P_f is
perfectly conditioned.  Every pulse this code builds is Nyquist over the
subsymbol grid (g(mK) = 0 for m != 0), so the synthesis waveform is
K g(0) delta, its spectrum is flat, and P_f = K g(0) I.  The pulse enters
the smoothing only through A: in P_1, P_2 and A^{-1} Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filterbank import PrototypeFilter, TransmitMatrix
from .params import WaveformParams

__all__ = [
    "BasisSet",
    "NcOperators",
    "build_basis",
    "build_nc_operators",
    "smooth_stream",
    "coefficient_scan",
    "coefficient_stream",
    "boundary_mismatch_dft",
    "derivative_scales",
]


def _constraint_rows(N: int, V: int) -> np.ndarray:
    """Rows p_0..p_V, (V+1, N): real polynomials in x_l = 2*pi*l/N, l = 0..N-1,
    orthonormal over the N bins.

    Arnoldi on diag(x) from the constant row, each new row orthogonalized
    twice against the rows before it (Brubeck, Nakatsukasa and Trefethen,
    "Vandermonde with Arnoldi", 2021).  Row v has degree v, so rows 0..v
    span the spectral-derivative factors (j x)^w of orders w <= v, and the
    rows of order V are the first V+1 rows of any higher order.
    """
    x = 2 * np.pi * np.arange(N) / N
    rows = np.empty((V + 1, N))
    rows[0] = 1 / math.sqrt(N)
    for v in range(1, V + 1):
        r = x * rows[v - 1]
        for _ in range(2):
            r -= (rows[:v] @ r) @ rows[:v]
        rows[v] = r / np.linalg.norm(r)
    return rows


@dataclass(frozen=True)
class BasisSet:
    """The basis signals of orders 0..V on the symbol core.

    ``Q`` (N x (V+1)) holds, for n = 0..N-1, column v = p_v(-j d/dn)
    applied to the synthesis waveform K g(0) delta, read from the CP start
    (sample n of the core is periodic index n + n_cp): its DFT is
    K g(0) p_v(x_l).  Its columns are orthogonal, each of norm
    K g(0) / sqrt(N).
    """

    Q: np.ndarray


def build_basis(g: PrototypeFilter, p: WaveformParams) -> BasisSet:
    """Evaluate basis orders 0..V by one inverse DFT of the constraint rows."""
    N, n_cp = p.N, p.n_cp
    core_idx = (np.arange(N) + n_cp) % N
    f0 = p.K * g.samples[0].real  # the synthesis waveform K g(0) delta
    return BasisSet(Q=f0 * np.fft.ifft(_constraint_rows(N, p.V), axis=1)[:, core_idx].T)


@dataclass(frozen=True)
class NcOperators:
    """Precomputed smoothing/decoding operator family for one configuration.

    Naming follows the construction: P_f matches the constraint rows at the
    block boundary, P_1/P_2 evaluate the outgoing/incoming boundary
    constraints from data vectors.  ``tm`` is the transmit matrix the set
    was built from; it applies A, A^{-1} and A^H through its polyphase
    factor, so the set holds no N x N array.  P_f is K g(0) I, kept dense
    with its inverse for the formulas and oracles that read them.  The
    rank-(V+1) N x N operators of the construction are kept only as their
    factors: the receiver's smooth-signal reconstruction
    P_w = Q P_f^{-1} P_2, the idempotent P_tilde = A^{-1} P_w = gain P_2,
    and the propagator P_hat = gain P_1.
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


#: relative tolerance of every identity (absolute for ``trace_rank``), at every V
IDENTITY_TOL = 1e-9


def operator_identity_residuals(ops: NcOperators) -> dict[str, tuple[float, float]]:
    """(residual, tolerance) of each algebraic identity the operator set satisfies.

    Only the identities that hold for the set are listed, each with
    ``IDENTITY_TOL``, so the build check and the validation suite read the
    same policy:

    - every set: ``pf_product`` (P_2 A^{-1} Q = P_f), ``idempotent``
      (P_tilde^2 = P_tilde),
      ``decode_fixed`` and ``decode_basis`` (the decode fixed point), and
      ``trace_rank`` (|tr P_tilde - (V+1)|, absolute; idempotency makes the
      trace the rank);
    - when A is unitary or the CP length is a multiple of K: ``p1p2_gram``
      (P_1 P_1^H = P_2 P_2^H);
    - when the set claims a unitary A: ``unitarity``
      (||A^H A - I||_F / sqrt(N), from the singular values sqrt(K)|Zg|) and
      ``power_trace`` (tr{P_hat P_hat^H + P_tilde P_tilde^H} against
      2(V+1), relative).

    With L = gain, P_tilde = L P_2 and P_w = (Q P_f^{-1}) P_2, the N x N
    identities reduce to (V+1) x (V+1) Gram forms through T = P_2 L:
    P_tilde^2 = L T P_2, P_w A^{-1} Q P_f^{-1} P_2 = Q P_f^{-1} T P_2 and
    P_w A^{-1} Q P_f^{-1} = Q P_f^{-1} T.
    """
    p, V = ops.params, ops.V
    tol = IDENTITY_TOL
    L, P_2 = ops.gain, ops.P_2
    QF = ops.basis.Q @ ops.P_f_inv
    T = P_2 @ L
    I = np.eye(V + 1)
    LhL = L.conj().T @ L
    P2P2h = P_2 @ P_2.conj().T
    P1P1h = ops.P_1 @ ops.P_1.conj().T
    res = {
        "pf_product": (_relative_residual(P_2 @ ops.A_inv_Q, ops.P_f), tol),
        "idempotent": (_gram_residual(LhL, T, I, P2P2h), tol),
        "decode_fixed": (_gram_residual(QF.conj().T @ QF, I, T, P2P2h), tol),
        "decode_basis": (_gram_residual(QF.conj().T @ QF, T, I, I), tol),
    }
    if ops.is_unitary or p.n_cp % p.K == 0:
        res["p1p2_gram"] = (_relative_residual(P1P1h, P2P2h), tol)
    if ops.is_unitary:
        u = np.linalg.norm(p.K * np.abs(ops.tm.polyphase) ** 2 - 1.0) / np.sqrt(p.N)
        res["unitarity"] = (float(u), tol)
    res["trace_rank"] = (float(abs(np.trace(T) - (V + 1))), tol)
    if ops.is_unitary:
        power = np.trace(P1P1h @ LhL) + np.trace(P2P2h @ LhL)
        res["power_trace"] = (abs(float(np.real(power)) - 2 * (V + 1)) / (2 * (V + 1)), tol)
    return res


#: highest derivative order the experiments run.  The operator set builds
#: and passes its identity check at every V with 2V+1 <= N; what limits V is
#: the damping of the recursion b_i = S b_{i-1} + v_i.  Its spectral radius
#: rho(S) grows with V and shrinks with the CP: at K = 256, M = 7 and
#: V = 7 (beta 0.1) it is 0.038 at n_cp = 280, 0.39 at n_cp = 24 and 0.98 at
#: n_cp = 1, and at K = 16, M = 4 it is 0.9988 (n_cp = 16) to 0.9999
#: (n_cp = 1) at V = 20.  Near 1 a correction is barely damped, and a
#: stream's SIR depends on its seed.  This bound reads V alone, so it does
#: not keep a short CP damped.
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

    P_1 and P_2 apply the constraint rows to the DFT of A d, at the block
    end and at the CP start; P_f = K g(0) I is their value on the basis.
    With ``check`` the build fails loudly if any residual of
    :func:`operator_identity_residuals` exceeds its tolerance;
    ``is_unitary`` adds the unitary identities, so a wrong claim fails
    ``unitarity``.
    """
    N, V, n_cp = p.N, p.V, p.n_cp
    rows = _constraint_rows(N, V)
    phase = np.exp(-2j * np.pi * n_cp * np.arange(N) / N)
    # Row v of P = rows F A is the DFT of row v of the rows, times A; each
    # P is taken as (A^H F^H rows^T)^T, a Gabor analysis of V+1 rows.
    P_1 = tm.adjoint(np.fft.fft(rows, axis=1).conj().T).conj().T
    P_2 = tm.adjoint(np.fft.fft(rows * phase, axis=1).conj().T).conj().T
    f0 = p.K * tm.g[0].real  # the flat spectrum of the synthesis waveform
    P_f = f0 * np.eye(V + 1)
    P_f_inv = np.eye(V + 1) / f0
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

    Written as b_i = S b_{i-1} + v_i with S = P_f^{-1} G and
    v_i = P_f^{-1}((P_1 D)_{i-1} - (P_2 D)_i), the carry taking the place
    of (P_1 D)_{-1}, where P_f^{-1} = I / (K g(0)) is applied as that
    scalar, the recursion is a linear scan, solved by recursive
    doubling (Hillis and Steele 1986): the step of shift h adds S^h b_{i-h}
    to every b_i at once, and S^h is squared between steps, so
    ceil(log2 count) products of the whole chunk solve it and no factor is
    built or held across calls.

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
    v = np.empty_like(P2D)
    v[:, 1:] = P1D[:, :-1] - P2D[:, 1:]
    # b_0 = 0 at the start of a stream, whose first symbol goes out unsmoothed
    v[:, 0] = 0 if carry is None else np.reshape(carry, (V1, -1)) - P2D[:, 0]
    f_inv = ops.P_f_inv[0, 0]  # P_f^{-1} = I / (K g(0))
    B = _scan(f_inv * G, f_inv * v)
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

