"""Encoding-protocol and probe descriptions shared by both engines.

A protocol bundles the two Hermitian generators, the number of applications
N of each, the mean gate strengths, and the probe state.  The evolution it
describes is the block product ``exp(-i N lam H_lam) exp(-i N g H_g)``:
all auxiliary gates act on the probe first, then all parameter gates.

``PRESETS`` maps each preset to its pair (H_lambda, H_g), built once per
process, and a ``factor`` with ``g_bar = factor * aux`` that absorbs a
written gate prefactor, so that the generator series stays literal: the
squeezer exp(-i (xi/2) (ad^2 + a^2)) has 0.5 (``g_bar = xi_bar / 2``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ValidationError, require_finite
from .ladder import (
    LadderPolynomial,
    is_hermitian,
    momentum_op,
    normal_order_product,
    position_op,
    creation_op,
    annihilation_op,
)

_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ProbeDescriptor:
    """Probe state |Psi>: vacuum, coherent, squeezed vacuum, or explicit
    Fock-basis amplitudes (normalized within 1e-10)."""

    kind: str
    alpha: complex = 0j
    r: float = 0.0
    phi: float = 0.0
    amplitudes: tuple[complex, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("vacuum", "coherent", "squeezed_vacuum", "fock_vector"):
            raise ValidationError(f"unknown probe kind {self.kind!r}")
        require_finite(alpha=self.alpha, r=self.r, phi=self.phi)
        if self.kind == "fock_vector":
            if not self.amplitudes:
                raise ValidationError("fock_vector probe requires amplitudes")
            # a nan norm would pass the normalisation check below
            require_finite(**{f"amplitudes[{k}]": c for k, c in enumerate(self.amplitudes)})
            norm = math.sqrt(sum(abs(c) ** 2 for c in self.amplitudes))
            if abs(norm - 1.0) > _NORM_TOL:
                raise ValidationError(
                    f"fock amplitudes must be normalized, got norm {norm!r}"
                )

    @staticmethod
    def vacuum() -> "ProbeDescriptor":
        return ProbeDescriptor(kind="vacuum")

    @staticmethod
    def coherent(alpha: complex) -> "ProbeDescriptor":
        return ProbeDescriptor(kind="coherent", alpha=complex(alpha))

    @staticmethod
    def squeezed_vacuum(r: float, phi: float = 0.0) -> "ProbeDescriptor":
        """Squeezed vacuum with variance exp(-2r)/2 along the phi-rotated X axis."""
        return ProbeDescriptor(kind="squeezed_vacuum", r=float(r), phi=float(phi))

    @staticmethod
    def fock_vector(amplitudes) -> "ProbeDescriptor":
        return ProbeDescriptor(
            kind="fock_vector", amplitudes=tuple(complex(c) for c in amplitudes)
        )


@dataclass(frozen=True)
class EncodingProtocol:
    """One experiment's encoding specification.

    ``n_applications`` counts how many times each generator is applied
    (N_lam = N_g = N); ``g_bar`` is the exponent coefficient per application
    of ``h_g`` after absorbing any written gate prefactor.  N = 0 is allowed
    and describes the empty product (probe unchanged).
    """

    h_lambda: LadderPolynomial
    h_g: LadderPolynomial
    n_applications: int
    lambda_bar: float
    g_bar: float
    probe: ProbeDescriptor = field(default_factory=ProbeDescriptor.vacuum)

    def __post_init__(self):
        if self.n_applications < 0 or self.n_applications != int(self.n_applications):
            raise ValidationError("n_applications must be a non-negative integer")
        require_finite(lambda_bar=self.lambda_bar, g_bar=self.g_bar)
        if not is_hermitian(self.h_lambda):
            raise ValidationError("h_lambda must be Hermitian")
        if not is_hermitian(self.h_g):
            raise ValidationError("h_g must be Hermitian")


# -- built-in presets ---------------------------------------------------------

_X, _P, _AD, _A = position_op(), momentum_op(), creation_op(), annihilation_op()

#: The presets as data: name -> (H_lambda, H_g, factor), built once; a
#: protocol's g_bar is factor * aux.
PRESETS = {
    "shear-k1": (_P, normal_order_product(_X, _X), 1.0),
    "xp-constant": (_P, _X, 1.0),
    "squeeze-inf": (_P, normal_order_product(_AD, _AD) + normal_order_product(_A, _A), 0.5),
}


def build_preset(name: str, n: int, lambda_bar: float, aux: float,
                 probe: ProbeDescriptor | None = None) -> EncodingProtocol:
    """Instantiate a preset by name; ``aux`` is s_bar / g_bar / xi_bar."""
    if name not in PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    h_lambda, h_g, factor = PRESETS[name]
    return EncodingProtocol(h_lambda, h_g, n, lambda_bar, factor * aux,
                            probe or ProbeDescriptor.vacuum())


def shear_protocol(
    n: int, x_bar: float, s_bar: float, probe: ProbeDescriptor | None = None
) -> EncodingProtocol:
    """Momentum displacements exp(-i x P) interleaved with shears exp(-i s X^2)."""
    return build_preset("shear-k1", n, x_bar, s_bar, probe)


def squeeze_protocol(
    n: int, x_bar: float, xi_bar: float, probe: ProbeDescriptor | None = None
) -> EncodingProtocol:
    """Momentum displacements against squeezers exp(-i (xi/2) (ad^2 + a^2)).

    The written 1/2 prefactor of the squeezing gate is absorbed here:
    ``g_bar = xi_bar / 2``.
    """
    return build_preset("squeeze-inf", n, x_bar, xi_bar, probe)
