"""Digital twin of the linear-optical qutrit measurement apparatus.

A qutrit is carried by three of the four modes of a 2-spatial x
2-polarization space: (upper,H), (upper,V) and (lower,V).  Wave plates act
on the polarization pair of one rail (or both rails for plates wide enough
to span them), and beam displacers permute one polarization between rails.
The (lower,H) mode must be empty at a circuit's output; occupancy there is
flagged as leakage.  An element with an array of angles acts as a stack of
elements, so one pass of the preparation circuit prepares a grid of states.

A measurement setting's circuit V realizes the projective measurement of one
spin-1 observable: its row to port i is the eigenbra <m_i| up to a phase, so
|V M| = I for the eigenvectors M.  That contract, not any particular port
geometry, is checked once, when the setting is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hermitian import PureState, builtin_spin1

# mode order: 0=(upper,H) 1=(upper,V) 2=(lower,H) 3=(lower,V)
LEAKAGE_MODE = 2
QUTRIT_MODES = (0, 1, 3)
LEAKAGE_TOL = 1e-10

# embedding of the qutrit basis into the mode space
EMBED = np.zeros((4, 3), dtype=complex)
EMBED[0, 0] = EMBED[1, 1] = EMBED[3, 2] = 1.0


class LeakageDetected(RuntimeError):
    """Amplitude appeared in the (lower,H) mode at a circuit's output."""


class NotProjectiveRealization(RuntimeError):
    """Circuit rows do not reproduce the observable's eigenbras."""


class BadProbabilities(ValueError):
    """Probabilities are negative or do not sum to 1."""


def _jones(a, b, c, d):
    """Complex [[a, b], [c, d]], shape (..., 2, 2), of numpy entries (...)."""
    m = np.empty(a.shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1] = a, b, c, d
    return m


def hwp_matrix(angle):
    """Half-wave plate Jones matrix [[cos2t, sin2t], [sin2t, -cos2t]], of
    shape (..., 2, 2) for a float or an array of angles of shape (...)."""
    c, s = np.cos(2 * angle), np.sin(2 * angle)
    return _jones(c, s, s, -c)


def qwp_matrix(angle):
    """Quarter-wave plate: R(t) diag(1, i) R(-t), global phase dropped; of
    shape (..., 2, 2) for a float or an array of angles of shape (...)."""
    c, s = np.cos(angle), np.sin(angle)
    rot = _jones(c, -s, s, c)
    return rot @ np.diag([1.0, 1.0j]) @ rot.conj().swapaxes(-1, -2)


@dataclass(frozen=True)
class OpticalElement:
    """One circuit element: a wave plate on a rail, or a beam displacer.

    kind: "HWP", "QWP", "BDH" (displaces horizontal between rails) or
    "BDV" (displaces vertical).  ``target`` is "upper", "lower" or "both"
    and is meaningful for wave plates only.
    """

    kind: str
    angle: float = 0.0
    target: str = "both"

    def matrix(self):
        """The 4x4 mode matrix; (..., 4, 4) for an ``angle`` array (...)."""
        m = np.empty(np.shape(self.angle) + (4, 4), dtype=complex)
        m[...] = np.eye(4)
        if self.kind in ("HWP", "QWP"):
            if self.target not in ("upper", "lower", "both"):
                raise ValueError(f"unknown wave-plate target {self.target!r}")
            jones = hwp_matrix(self.angle) if self.kind == "HWP" else qwp_matrix(self.angle)
            if self.target in ("upper", "both"):
                m[..., 0:2, 0:2] = jones
            if self.target in ("lower", "both"):
                m[..., 2:4, 2:4] = jones
        elif self.kind in ("BDH", "BDV"):  # swap the rails of H, or of V
            m = m[..., [2, 1, 0, 3] if self.kind == "BDH" else [0, 3, 2, 1], :]
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")
        return m


def compose(elements, modes=None):
    """The elements applied in turn to mode vectors ``modes`` (..., 4, k),
    or their product when ``modes`` is None; output mode vectors with a
    (lower,H) amplitude above LEAKAGE_TOL, or NaN, raise LeakageDetected."""
    m = np.eye(4, dtype=complex) if modes is None else modes
    for el in elements:
        m = el.matrix() @ m
    if modes is not None:
        leak = np.abs(m[..., LEAKAGE_MODE, :]).max(initial=0.0)
        if not leak <= LEAKAGE_TOL:
            raise LeakageDetected(f"(lower,H) output amplitude {leak:g}")
    return m


_deg = np.deg2rad


@dataclass(frozen=True)
class MeasurementSetting:
    """The circuit that realizes one observable's projective measurement:
    wave plates (angles in radians) and beam displacers in order, a plate
    the setting removes left out.

    ``ports[i]`` is the output mode detecting outcome i, in the
    observable's stored eigenvalue order.  ``unitary``, the read-only 3x3
    circuit matrix from qutrit amplitudes to the ports, is checked once here.
    """

    observable: str
    elements: tuple[OpticalElement, ...]
    ports: tuple[int, int, int]
    unitary: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = compose(self.elements, EMBED)[list(self.ports), :]
        obs = {o.name: o for o in builtin_spin1()}[self.observable]
        # "not <=" so that a NaN circuit also fails
        if not np.abs(np.abs(v @ obs.eigenvectors) - np.eye(3)).max() <= LEAKAGE_TOL:
            raise NotProjectiveRealization(
                f"circuit rows for {self.observable} are not its eigenbras up to a phase")
        v.flags.writeable = False
        object.__setattr__(self, "unitary", v)


def builtin_settings():
    """The four tabulated wave-plate settings with their circuit layouts.

    Angles follow the published table (degrees); a plate the table removes
    is left out.  Beam-displacer layout and plate rails differ per observable
    because the network is physically rearranged between settings; each
    layout realizes its observable's measurement with (lower,H) kept empty.
    """
    lx = MeasurementSetting(
        "Lx",
        (
            OpticalElement("HWP", _deg(0.0), "lower"),
            OpticalElement("HWP", _deg(45.0), "both"),
            OpticalElement("BDH"),
            OpticalElement("HWP", _deg(22.5), "upper"),
            OpticalElement("HWP", _deg(-45.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ),
        ports=(0, 1, 3),
    )
    ly = MeasurementSetting(
        "Ly",
        (
            OpticalElement("HWP", _deg(-45.0), "both"),
            OpticalElement("BDH"),
            OpticalElement("HWP", _deg(22.5), "upper"),
            OpticalElement("HWP", _deg(45.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("QWP", _deg(0.0), "upper"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ),
        ports=(1, 0, 3),
    )
    lz = MeasurementSetting("Lz", (), ports=(3, 0, 1))
    lp = MeasurementSetting(
        "Lp",
        (
            OpticalElement("HWP", _deg(0.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("HWP", _deg(0.0), "lower"),
            OpticalElement("HWP", _deg(-45.0), "upper"),
            OpticalElement("QWP", _deg(0.0), "upper"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ),
        ports=(0, 1, 3),
    )
    return {"Lx": lx, "Ly": ly, "Lz": lz, "Lp": lp}


def prepare_amplitudes(thetas):
    """State preparation circuit on angles of shape (...): a horizontally
    polarized photon on the upper rail passes the vertical displacer
    unchanged, then HWP(theta/2) and HWP(0) on the upper rail produce the
    embedded qutrit (cos t, -sin t, 0), shape (..., 3), the whole batch
    checked for leakage by ``compose``."""
    circuit = (
        OpticalElement("BDV"),
        OpticalElement("HWP", np.asarray(thetas, dtype=float) / 2.0, "upper"),
        OpticalElement("HWP", 0.0, "upper"),
    )
    return compose(circuit, EMBED[:, :1])[..., QUTRIT_MODES, 0]


def prepare_state(theta) -> PureState:
    """The prepared qutrit of one angle (:func:`prepare_amplitudes`)."""
    return PureState(prepare_amplitudes(theta), label=f"theta={theta:.4f}")


def measurement_unitary(setting: MeasurementSetting):
    """The setting's checked 3x3 circuit matrix, qutrit amplitudes to ports."""
    return setting.unitary


def projection_probabilities(psi, setting: MeasurementSetting):
    """Outcome probabilities |(V psi)_i|^2 of qutrit amplitudes ``psi``
    (..., 3), in eigenvalue order; every row must sum to 1."""
    p = np.abs(np.matvec(setting.unitary, psi)) ** 2
    total = p.sum(axis=-1, keepdims=True)
    # "not <=" so that a NaN row also fails
    if not np.all(np.abs(total - 1.0) <= 1e-10):
        raise BadProbabilities(f"probabilities sum to {total.ravel()}")
    return p / total


def sample_counts(probabilities, total, seed):
    """Independent Poisson(total * p) counts for every probability block
    (..., k) of the stack, all from one generator seeded by ``seed``;
    int64, of the stack's shape."""
    p = np.asarray(probabilities, dtype=float)
    if total <= 0:
        raise BadProbabilities("total counts must be positive")
    if not (np.all(p >= -1e-12) and np.all(np.abs(p.sum(axis=-1) - 1.0) <= 1e-10)):
        raise BadProbabilities("a probability block is negative or does not sum to 1")
    return np.random.default_rng(seed).poisson(total * np.clip(p, 0.0, None)).astype(np.int64)


def decompose_lx():
    """Three-stage decomposition of the Lx measurement unitary.

    Returns (u, u1, u2, u3, residual) with u = u3 @ u2 @ u1.  The middle
    factor is recovered from the outer two and the target, then checked for
    unitarity; the published middle factor has an inconsistent row sign,
    which this reconstruction corrects.
    """
    s = 1.0 / np.sqrt(2.0)
    u = np.array([[0.5, -s, 0.5], [0.5, s, 0.5], [-s, 0.0, s]], dtype=complex)
    u1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    u3 = np.array([[s, s, 0], [-s, s, 0], [0, 0, 1]], dtype=complex)
    u2 = u3.conj().T @ u @ u1.conj().T
    if np.max(np.abs(u2 @ u2.conj().T - np.eye(3))) > 1e-12:
        raise NotProjectiveRealization("recovered middle factor is not unitary")
    residual = float(np.max(np.abs(u - u3 @ u2 @ u1)))
    return u, u1, u2, u3, residual
