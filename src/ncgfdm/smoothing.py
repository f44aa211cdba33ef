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
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .filterbank import COND_LIMIT, PrototypeFilter, SingularMatrixError, TransmitMatrix
from .params import WaveformParams

__all__ = [
    "BasisSet",
    "NcOperators",
    "synthesis_waveform",
    "build_basis",
    "build_nc_operators",
    "smooth_stream",
    "coefficient_stream",
    "boundary_mismatch",
    "boundary_mismatch_dft",
    "derivative_scales",
]


def synthesis_waveform(g: PrototypeFilter, p: WaveformParams) -> tuple[np.ndarray, np.ndarray]:
    """Sum of all K frequency-shifted prototypes and its N-point DFT.

    The geometric sum over subcarriers collapses to K*g(n) on the samples
    where n is a multiple of K and zero elsewhere.
    """
    p.validate()
    N, K = p.N, p.K
    n = np.arange(N)
    f0 = np.where(n % K == 0, K * g.samples, 0.0)
    return f0, np.fft.fft(f0)


@dataclass(frozen=True)
class BasisSet:
    """Basis signals restricted to the symbol core and the CP-extended range.

    Q holds orders 0..V on n = 0..N-1; Q_ext holds orders 0..2V on
    n = -n_cp..N-1 (the extended family enters the boundary-matching
    matrix).
    """

    Q: np.ndarray
    Q_ext: np.ndarray
    F0: np.ndarray
    f0: np.ndarray
    V: int
    n_cp: int


def build_basis(g: PrototypeFilter, p: WaveformParams) -> BasisSet:
    """Evaluate every basis order by inverse DFT of the derivative spectrum."""
    p.validate()
    N, V, n_cp = p.N, p.V, p.n_cp
    f0, F0 = synthesis_waveform(g, p)
    fac = 2j * np.pi * np.arange(N) / N
    # f_v on the periodic grid; sample index n maps to (n + n_cp) mod N
    cols = [np.fft.ifft(fac**v * F0) for v in range(2 * V + 1)]
    core_idx = (np.arange(N) + n_cp) % N
    ext_idx = np.arange(N + n_cp) % N  # n = -n_cp..N-1 shifted by n_cp
    Q = np.stack([c[core_idx] for c in cols[: V + 1]], axis=1)
    Q_ext = np.stack([c[ext_idx] for c in cols], axis=1)
    return BasisSet(Q=Q, Q_ext=Q_ext, F0=F0, f0=f0, V=V, n_cp=n_cp)


class _EquilibratedSolve:
    """Pivoted solve of the boundary matrix with diagonal equilibration.

    Derivative orders up to 2V make the raw entries span many decades; the
    symmetric scaling by the diagonal keeps high orders usable in double
    precision.
    """

    def __init__(self, P_f: np.ndarray, what: str = "boundary matrix"):
        d = np.abs(np.diag(P_f)).astype(float)
        d[d == 0] = 1.0
        self.scale = 1.0 / np.sqrt(d)
        scaled = P_f * np.outer(self.scale, self.scale)
        lu, piv = scipy.linalg.lu_factor(scaled)
        rcond, _ = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(scaled, 1))
        cond = np.inf if rcond == 0 else 1.0 / rcond
        if cond > COND_LIMIT:
            raise SingularMatrixError(what, cond)
        self.cond = cond
        self._lu = (lu, piv)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        scaled_rhs = rhs * (self.scale[:, None] if rhs.ndim == 2 else self.scale)
        out = scipy.linalg.lu_solve(self._lu, scaled_rhs)
        return out * (self.scale[:, None] if rhs.ndim == 2 else self.scale)

    def inverse(self) -> np.ndarray:
        return self.solve(np.eye(self.scale.size, dtype=np.complex128))


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
    def Q(self) -> np.ndarray:
        return self.basis.Q

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


def operator_identity_residuals(ops: NcOperators) -> dict[str, float]:
    """Relative residuals of the algebraic identities the operators satisfy.

    ``p1p2_gram`` (equal boundary Gram matrices) holds only when the
    modulation matrix is unitary or the CP length is a multiple of K; the
    other identities hold for every configuration.  With L = gain,
    P_tilde = L P_2 and P_w = (Q P_f^{-1}) P_2, the N x N identities reduce
    to (V+1) x (V+1) Gram forms through T = P_2 L:
    P_tilde^2 = L T P_2, P_w A^{-1} Q P_f^{-1} P_2 = Q P_f^{-1} T P_2 and
    P_w A^{-1} Q P_f^{-1} = Q P_f^{-1} T.
    """
    L, P_2 = ops.gain, ops.P_2
    QF = ops.basis.Q @ ops.P_f_inv
    T = P_2 @ L
    I = np.eye(ops.V + 1)
    P2P2h = P_2 @ P_2.conj().T
    return {
        "pf_symmetric": _relative_residual(ops.P_f, ops.P_f.T),
        "pf_product": _relative_residual(P_2 @ ops.A_inv_Q, ops.P_f),
        "idempotent": _gram_residual(L.conj().T @ L, T, I, P2P2h),
        "decode_fixed": _gram_residual(QF.conj().T @ QF, I, T, P2P2h),
        "decode_basis": _gram_residual(QF.conj().T @ QF, T, I, I),
        "p1p2_gram": _relative_residual(ops.P_1 @ ops.P_1.conj().T, P2P2h),
        "trace_rank": float(abs(np.trace(T) - (ops.V + 1))),
    }


def identity_tolerance(V: int) -> float:
    """Build/validation tolerance; relaxed for the worst-conditioned orders."""
    return 1e-6 if V >= 5 else 1e-9


def build_nc_operators(
    tm: TransmitMatrix,
    basis: BasisSet,
    p: WaveformParams,
    *,
    is_unitary: bool = False,
    check: bool = True,
) -> NcOperators:
    """Populate the full operator family and verify it at build time.

    The build fails loudly if the boundary matrix is numerically singular or
    if any applicable identity residual exceeds the tolerance.
    """
    p.validate()
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
    solver = _EquilibratedSolve(P_f)
    P_f_inv = solver.inverse()
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
        pf_cond=solver.cond,
    )
    if check:
        tol = identity_tolerance(V)
        res = operator_identity_residuals(ops)
        gram_applies = is_unitary or (p.K > 0 and n_cp % p.K == 0)
        for name, value in res.items():
            if name == "p1p2_gram" and not gram_applies:
                continue
            if name == "trace_rank" and not is_unitary:
                continue
            if value > tol:
                raise AssertionError(
                    f"operator identity {name} residual {value:.3e} exceeds {tol:.0e} "
                    f"(K={p.K}, M={p.M}, beta={p.beta}, V={V}, n_cp={n_cp})"
                )
    return ops


# ---------------------------------------------------------------------------
# smoothing recursion


def coefficient_stream(
    ops: NcOperators, D: np.ndarray, carry: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Basis coefficients b_i = P_f^{-1}(P_1 d_bar_{i-1} - P_2 d_i) of a stream.

    D holds one symbol per column, (N, count), or S parallel streams,
    (N, count, S).  ``carry`` is P_1 d_bar of the symbol before the first
    column, or None at the start of a stream, whose first symbol is sent
    unsmoothed (b_0 = 0).  Since d_bar_i = d_i + A^{-1} Q b_i, the recursion
    only needs P_1 d_bar_i = (P_1 D)_i + (P_1 A^{-1} Q) b_i, so the cost is
    two thin rectangular products plus O(count (V+1)^2).  Returns (B, carry)
    with B of shape (V+1, count[, S]) and the carry for the next chunk.
    """
    D = np.asarray(D, dtype=np.complex128)
    N, count = D.shape[:2]
    thin = (ops.V + 1,) + D.shape[1:]
    P1D = (ops.P_1 @ D.reshape(N, -1)).reshape(thin)
    P2D = (ops.P_2 @ D.reshape(N, -1)).reshape(thin)
    P1_gain_q = ops.P_1 @ ops.A_inv_Q
    B = np.empty(thin, dtype=np.complex128)
    for i in range(count):
        if carry is None:
            b = np.zeros(thin[:1] + thin[2:], dtype=np.complex128)
        else:
            b = ops.P_f_inv @ (carry - P2D[:, i])
        B[:, i] = b
        carry = P1D[:, i] + P1_gain_q @ b
    return B, carry


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


def boundary_mismatch(
    ops: NcOperators, d_bar_prev: np.ndarray, d_bar_i: np.ndarray
) -> np.ndarray:
    """Derivative gaps (orders 0..V) between consecutive blocks.

    Entry v is the order-v derivative of block i-1 at its wrap point minus
    the order-v derivative of block i at the CP start.
    """
    return ops.P_1 @ d_bar_prev - ops.P_2 @ d_bar_i


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


def with_corrupted_p2(ops: NcOperators, scale: float = 1.01) -> NcOperators:
    """Test hook: copy with P_2 perturbed.

    The perturbation breaks the boundary-product identity, so the
    idempotency of P_tilde = gain P_2 fails; used to validate that the
    validation report actually detects faults.
    """
    return replace(ops, P_2=ops.P_2 * scale)
