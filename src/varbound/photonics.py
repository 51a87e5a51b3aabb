"""Digital twin of the linear-optical qutrit measurement apparatus.

A qutrit is carried by three of the four modes of a 2-spatial x
2-polarization space: (upper,H), (upper,V) and (lower,V).  Wave plates act
on the polarization pair of one rail (or both rails for plates wide enough
to span them), and beam displacers permute one polarization between rails.
The (lower,H) mode must stay empty at every stage output; occupancy there
is flagged as leakage.

Each built-in measurement setting composes to a circuit whose output ports
realize the projective measurement of one spin-1 observable: the restricted
circuit rows reproduce the eigenbras entry-for-entry in magnitude.  That
row contract, not any particular port geometry, is what is validated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import Observable, PureState, builtin_spin1

# mode order: 0=(upper,H) 1=(upper,V) 2=(lower,H) 3=(lower,V)
MODE_LABELS = (("upper", "H"), ("upper", "V"), ("lower", "H"), ("lower", "V"))
LEAKAGE_MODE = 2
QUTRIT_MODES = (0, 1, 3)
LEAKAGE_TOL = 1e-10

# embedding of the qutrit basis into the mode space
EMBED = np.zeros((4, 3))
EMBED[0, 0] = EMBED[1, 1] = EMBED[3, 2] = 1.0


class LeakageDetected(RuntimeError):
    """Amplitude appeared in the (lower,H) mode at a stage output."""


class NotProjectiveRealization(RuntimeError):
    """Circuit rows do not reproduce the observable's eigenbras."""


class BadProbabilities(ValueError):
    """Probabilities are negative or do not sum to 1."""


def hwp_matrix(angle):
    """Half-wave plate Jones matrix [[cos2t, sin2t], [sin2t, -cos2t]]."""
    c, s = np.cos(2 * angle), np.sin(2 * angle)
    return np.array([[c, s], [s, -c]], dtype=complex)


def qwp_matrix(angle):
    """Quarter-wave plate: R(t) diag(1, i) R(-t), global phase dropped."""
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    return rot @ np.diag([1.0, 1.0j]) @ rot.conj().T


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
        m = np.eye(4, dtype=complex)
        if self.kind in ("HWP", "QWP"):
            jones = hwp_matrix(self.angle) if self.kind == "HWP" else qwp_matrix(self.angle)
            if self.target in ("upper", "both"):
                m[0:2, 0:2] = jones
            if self.target in ("lower", "both"):
                m[2:4, 2:4] = jones
        elif self.kind == "BDH":
            m[[0, 2]] = m[[2, 0]]
        elif self.kind == "BDV":
            m[[1, 3]] = m[[3, 1]]
        else:
            raise ValueError(f"unknown element kind {self.kind!r}")
        return m


def compose(elements):
    """Product of element matrices, first element applied first."""
    m = np.eye(4, dtype=complex)
    for el in elements:
        m = el.matrix() @ m
    return m


_deg = np.deg2rad


@dataclass(frozen=True)
class MeasurementSetting:
    """Wave-plate angles (radians; None = plate removed) plus the circuit
    realization for one observable's projective measurement.

    ``ports[i]`` is the output mode detecting outcome i, in the
    observable's stored eigenvalue order.
    """

    observable: str
    h1: float | None
    h2: float | None
    h3: float | None
    h4: float | None
    q: float | None
    elements: tuple[OpticalElement, ...]
    ports: tuple[int, int, int]


def _setting(name, h1, h2, h3, h4, q, elements, ports):
    angles = (None if x is None else _deg(x) for x in (h1, h2, h3, h4, q))
    return MeasurementSetting(name, *angles, tuple(elements), ports)


def builtin_settings():
    """The four tabulated wave-plate settings with their circuit layouts.

    Angles follow the published table (degrees): removed plates compose as
    identity.  Beam-displacer layout and plate rails differ per observable
    because the network is physically rearranged between settings; each
    layout was chosen so the row contract holds with (lower,H) kept empty.
    """
    lx = _setting(
        "Lx", 45.0, 22.5, -45.0, 22.5, None,
        [
            OpticalElement("HWP", _deg(45.0), "both"),
            OpticalElement("BDH"),
            OpticalElement("HWP", _deg(22.5), "upper"),
            OpticalElement("HWP", _deg(-45.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ],
        ports=(0, 1, 3),
    )
    ly = _setting(
        "Ly", -45.0, 22.5, 45.0, 22.5, 0.0,
        [
            OpticalElement("HWP", _deg(-45.0), "both"),
            OpticalElement("BDH"),
            OpticalElement("HWP", _deg(22.5), "upper"),
            OpticalElement("HWP", _deg(45.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("QWP", _deg(0.0), "upper"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ],
        ports=(0, 1, 3),
    )
    lz = _setting("Lz", None, None, None, None, None, [], ports=(3, 0, 1))
    lp = _setting(
        "Lp", 0.0, 0.0, -45.0, 22.5, 0.0,
        [
            OpticalElement("HWP", _deg(0.0), "both"),
            OpticalElement("BDV"),
            OpticalElement("HWP", _deg(0.0), "lower"),
            OpticalElement("HWP", _deg(-45.0), "upper"),
            OpticalElement("QWP", _deg(0.0), "upper"),
            OpticalElement("HWP", _deg(22.5), "upper"),
        ],
        ports=(0, 1, 3),
    )
    return {"Lx": lx, "Ly": ly, "Lz": lz, "Lp": lp}


_BUILTIN_OBS = {}


def _builtin_observable(name) -> Observable:
    if not _BUILTIN_OBS:
        _BUILTIN_OBS.update(zip(("Lx", "Ly", "Lz", "Lp"), builtin_spin1()))
    return _BUILTIN_OBS[name]


def prepare_state(theta) -> PureState:
    """State preparation circuit: splitter then two upper-rail plates.

    A horizontally polarized photon on the upper rail passes the vertical
    displacer unchanged, then HWP(theta/2) and HWP(0) on the upper rail
    produce the embedded qutrit (cos t, -sin t, 0).
    """
    photon = np.zeros(4, dtype=complex)
    photon[0] = 1.0
    elements = [
        OpticalElement("BDV"),
        OpticalElement("HWP", theta / 2.0, "upper"),
        OpticalElement("HWP", 0.0, "upper"),
    ]
    out = compose(elements) @ photon
    if abs(out[LEAKAGE_MODE]) > LEAKAGE_TOL:
        raise LeakageDetected(f"(lower,H) amplitude {abs(out[LEAKAGE_MODE]):g}")
    return PureState(out[list(QUTRIT_MODES)], label=f"theta={theta:.4f}")


def measurement_unitary(setting: MeasurementSetting):
    """3x3 circuit matrix taking qutrit amplitudes to detector ports.

    Row i of the result matches the eigenbra <m_i| of the setting's
    observable entrywise in magnitude (per-row phases are irrelevant to
    the detected probabilities).
    """
    circ = compose(setting.elements)
    restricted = circ @ EMBED  # 4x3
    leak = np.max(np.abs(restricted[LEAKAGE_MODE]))
    if leak > LEAKAGE_TOL:
        raise LeakageDetected(f"(lower,H) output amplitude {leak:g}")
    v = restricted[list(setting.ports), :]
    obs = _builtin_observable(setting.observable)
    bras = obs.eigenvectors.conj().T
    if np.max(np.abs(np.abs(v) - np.abs(bras))) > LEAKAGE_TOL:
        raise NotProjectiveRealization(
            f"circuit rows for {setting.observable} do not match its eigenbras"
        )
    return v


def projection_probabilities(psi, setting: MeasurementSetting):
    """Outcome probabilities |(V psi)_i|^2 of qutrit amplitudes ``psi``
    (..., 3), in eigenvalue order; every row must sum to 1."""
    p = np.abs(np.matvec(measurement_unitary(setting), psi)) ** 2
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
