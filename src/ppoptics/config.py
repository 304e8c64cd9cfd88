"""Numeric tolerances shared across the package, centralized in one record."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    exact: float = 1e-12        # algebraic identities in double precision
    trace: float = 1e-10        # oracle traces vs closed forms
    psd: float = 1e-10          # |negative eigenvalue| allowed in "numerically PSD"
    embedding_clip: float = 1e-8  # relative circulant-eigenvalue clipping threshold
    rank_loss: float = 1e-12    # residual diagonal mass signalling sampler rank loss
    unitary: float = 1e-10      # max deviation of V^dag V from identity


TOL = Tolerances()
