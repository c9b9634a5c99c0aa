"""Semi-wavefront analysis for scalar convolution equations.

Builds characteristic functions for convolution-form models, locates
their real zeros, computes minimal wave speeds by the tangency condition,
reduces four concrete model families to convolution form, computes
profiles by relaxed fixed-point iteration, extracts decay laws at the left
tail, and runs hypothesis audits and uniqueness probes.
"""

__version__ = "0.1.0"

from .charfun import (CharacteristicFunction, ScanReport, SpectralData, chi,
                      chi1_margin, min_speed, real_roots, strip_zero_scan)
from .kernels import (ConvolvedKernel, DiracComb, GaussianKernel,
                      KernelComponent, OneSidedExponential, PiecewiseGreen,
                      TabulatedKernel, convolve, laplace, load_tabulated)
from .models import (Atom, ConvolutionProblem, LocalDelayedRD, ModelSpec,
                     NonlocalDelayedRD, NonlocalKPP, NonlocalLattice,
                     Nonlinearity, linear, load_model, logistic, mackey_glass,
                     model_min_speed, tabulated_nonlinearity)
from .wavesolver import (CappedExponential, Grid, SolveOptions, WaveProfile,
                         apply_operator, discrete_decay_rate, residual,
                         solve_profile)
from .asymptotics import (DecayFit, check_representation, fit_decay,
                          max_supported_delta)
from .verify import (Check, VerifyReport, align_translate, audit_hypotheses,
                     mollison_check, speed_admissibility, uniqueness_probe)

__all__ = [name for name in dir() if not name.startswith("_")]
