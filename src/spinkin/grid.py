"""Periodic 1D spatial grid and spectral derivative helpers."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class SpatialGrid1D:
    """Uniform periodic grid on [0, L) with N points."""

    n: int
    length: float

    def __post_init__(self):
        if self.n < 2 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 2, got {self.n}")
        if not self.length > 0:
            raise ValueError(f"domain length must be positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """FFT-ordered wavenumbers 2*pi*m/L (computed once, read-only)."""
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        k.flags.writeable = False
        return k

    def derivative(self, u, order=1):
        """Spectral derivative of a (possibly complex) periodic field.

        Works on the last axis so stacked fields (3, N) go through unchanged.
        The Nyquist mode is zeroed for odd derivative orders.
        """
        u = np.asarray(u)
        k = self.k
        ik = (1j * k) ** order
        if order % 2 == 1:
            ik = ik.copy()
            ik[self.n // 2] = 0.0
        du = np.fft.ifft(np.fft.fft(u, axis=-1) * ik, axis=-1)
        if np.isrealobj(u):
            return du.real
        return du

    def integrate(self, u):
        """Trapezoid-free periodic quadrature: sum(u) * dx over the last axis."""
        total = np.sum(np.asarray(u), axis=-1) * self.dx
        if np.ndim(total) == 0:
            return complex(total) if np.iscomplexobj(u) else float(total)
        return total
