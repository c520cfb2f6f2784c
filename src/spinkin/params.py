"""Physical parameters in normalized units.

The toolkit works in units with e = m_e = epsilon_0 = 1 by default; hbar is
kept as a free dimensionless knob so that quantum corrections can be dialed
up or down.  The Bohr magneton and mu0 are always derived, never stored.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PlasmaParams:
    """Mass, charge and field constants shared by every solver.

    mu_B (e*hbar/2m) and mu0 (1/(epsilon0 c^2)) are derived properties, so
    they cannot get out of sync with the stored fields and c^2 epsilon0
    mu0 = 1 always holds.
    """

    mass: float = 1.0
    charge: float = 1.0      # magnitude of the electron charge
    hbar: float = 1.0
    epsilon0: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("mass", "charge", "hbar", "epsilon0", "c"):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be strictly positive, got {value}")

    @property
    def mu_B(self) -> float:
        return self.charge * self.hbar / (2.0 * self.mass)

    @property
    def mu0(self) -> float:
        return 1.0 / (self.c * self.c * self.epsilon0)
