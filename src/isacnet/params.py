"""Network parameter bundle shared by the analytic laws and the simulator."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .approx import fitted_alpha

__all__ = ["SystemParams"]

_POWER_TOL = 1e-9


@dataclass(frozen=True)
class SystemParams:
    """All network parameters.

    lam      deployment density in stations per square meter
    mt, mr   transmit / receive antennas per station
    beta     path-loss exponent (> 2)
    ps, pc   sensing / communication power split; total power is normalized
             to ps + pc = 1 W
    sigma2   radar cross section of the target (m^2, normalized)
    L        communication cluster size (nearest stations serving the user)
    N        sensing cluster size (nearest stations probing the target)

    These are every metric's only model inputs; `alpha()` fits the
    Gamma-CDF surrogate parameter for shape mt - 1.
    """

    lam: float = 1e-4
    mt: int = 10
    mr: int = 6
    beta: float = 4.0
    ps: float = 0.5
    pc: float = 0.5
    sigma2: float = 1.0
    L: int = 1
    N: int = 1

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.mt < 2:
            raise ValueError("mt must be >= 2 (zero-forcing needs two streams)")
        if self.mr < 1:
            raise ValueError("mr must be >= 1")
        if self.beta <= 2:
            raise ValueError("beta must exceed 2")
        if self.ps < 0 or self.pc < 0:
            raise ValueError("power shares must be nonnegative")
        if abs(self.ps + self.pc - 1.0) > _POWER_TOL:
            raise ValueError("total power ps + pc must be normalized to 1")
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if self.L < 1 or self.N < 1:
            raise ValueError("cluster sizes must be >= 1")

    @property
    def pt(self):
        """Total per-station transmit power (normalized)."""
        return self.ps + self.pc

    @property
    def q_shape(self):
        """Gamma shape of a desired-link gain: transmit antennas minus one."""
        return self.mt - 1

    def alpha(self):
        """The Gamma-CDF surrogate parameter fitted for shape mt - 1."""
        return fitted_alpha(self.q_shape)

    def with_(self, **changes):
        """Convenience wrapper around dataclasses.replace."""
        return replace(self, **changes)
