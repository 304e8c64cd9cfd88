"""Point-process samplers, coherence kernels, and an exact Fock-space oracle.

The package connects three layers: closed-form correlation kernels
(`kernels`), samplers and estimators for the point processes they induce
(`gaussian_field`, `samplers`, `estimators`), and the exact machinery
that grounds them (`wick`, `fock`, `builder`). Modules are imported as
`ppoptics.samplers`, `ppoptics.fock`, and so on; the package itself
re-exports nothing, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
