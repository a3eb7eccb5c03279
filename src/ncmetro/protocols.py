"""Encoding-protocol and probe descriptions shared by both engines.

A protocol bundles the two Hermitian generators, the number of applications
N of each, the mean gate strengths, and the probe state.  The evolution it
describes is the block product ``exp(-i N lam H_lam) exp(-i N g H_g)``:
all auxiliary gates act on the probe first, then all parameter gates.

Written gate prefactors are absorbed into ``g_bar`` when a protocol is
built, e.g. the squeezing gate exp(-i (xi/2) (ad^2 + a^2)) contributes
``g_bar = xi_bar / 2`` so that the generator series stays literal.
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


def shear_protocol(
    n: int, x_bar: float, s_bar: float, probe: ProbeDescriptor | None = None
) -> EncodingProtocol:
    """Momentum displacements exp(-i x P) interleaved with shears exp(-i s X^2)."""
    x = position_op()
    return EncodingProtocol(
        h_lambda=momentum_op(),
        h_g=normal_order_product(x, x),
        n_applications=n,
        lambda_bar=x_bar,
        g_bar=s_bar,
        probe=probe or ProbeDescriptor.vacuum(),
    )


def constant_commutator_protocol(
    n: int, x_bar: float, g_bar: float, probe: ProbeDescriptor | None = None
) -> EncodingProtocol:
    """Momentum displacements against position displacements: [X, P] = i."""
    return EncodingProtocol(
        h_lambda=momentum_op(),
        h_g=position_op(),
        n_applications=n,
        lambda_bar=x_bar,
        g_bar=g_bar,
        probe=probe or ProbeDescriptor.vacuum(),
    )


def squeeze_protocol(
    n: int, x_bar: float, xi_bar: float, probe: ProbeDescriptor | None = None
) -> EncodingProtocol:
    """Momentum displacements against squeezers exp(-i (xi/2) (ad^2 + a^2)).

    The written 1/2 prefactor of the squeezing gate is absorbed here:
    ``g_bar = xi_bar / 2``.
    """
    ad, a = creation_op(), annihilation_op()
    h_g = normal_order_product(ad, ad) + normal_order_product(a, a)
    return EncodingProtocol(
        h_lambda=momentum_op(),
        h_g=h_g,
        n_applications=n,
        lambda_bar=x_bar,
        g_bar=xi_bar / 2.0,
        probe=probe or ProbeDescriptor.vacuum(),
    )


#: Preset registry: name -> builder.
PRESETS = {
    "shear-k1": shear_protocol,
    "xp-constant": constant_commutator_protocol,
    "squeeze-inf": squeeze_protocol,
}


def build_preset(
    name: str,
    n: int,
    lambda_bar: float,
    aux: float,
    probe: ProbeDescriptor | None = None,
) -> EncodingProtocol:
    """Instantiate a preset by name; ``aux`` is s_bar / g_bar / xi_bar."""
    if name not in PRESETS:
        raise ValidationError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        )
    return PRESETS[name](n, lambda_bar, aux, probe)
