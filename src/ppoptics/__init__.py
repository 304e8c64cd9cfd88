"""Point-process samplers, coherence kernels, and an exact Fock-space oracle.

The package connects three layers: windows and spectral kernels
(`kernels`); samplers for the point processes they induce and for the
Lorentz-line permanental process, which takes its envelope time sigma
alone (`samplers`, whose permanental sampler runs the private field draw
of `gaussian_field`), with estimators and the pcf theory they are checked
against (`estimators`); and the exact machinery that
grounds them (`wick`, `fock`, `builder`). Modules are imported as
`ppoptics.samplers`, `ppoptics.fock`, and so on; the package itself
re-exports nothing, so importing one module loads only what it needs.
"""

__version__ = "0.1.0"
