"""fdpclab: achievable-rate laboratory for dirty paper coding over fading channels."""

from .model import (ChannelSpec, CorrelatedRayleigh, Dimensions,
                    IidComplexGaussian, IidRealGaussian, IidUniformComplex,
                    NoCsit, PerfectCsit, QuantizedCsit, build_sample_bank)
from .rate import (CellCore, RateEstimate, achievable_rate, build_M,
                   no_interference_bound, objective)
from .inflation import (SolveResult, alg1_solve, alg2_solve, solve_w,
                        theoretical_scaling, w_perfect_csit, w_pinv)
from .covopt import JointResult, joint_optimize

__version__ = "0.1.0"

__all__ = [
    "ChannelSpec", "CorrelatedRayleigh", "Dimensions", "IidComplexGaussian",
    "IidRealGaussian", "IidUniformComplex", "NoCsit", "PerfectCsit",
    "QuantizedCsit", "build_sample_bank",
    "CellCore", "RateEstimate", "achievable_rate", "build_M", "no_interference_bound",
    "objective",
    "SolveResult", "alg1_solve", "alg2_solve", "solve_w",
    "theoretical_scaling", "w_perfect_csit", "w_pinv",
    "JointResult", "joint_optimize",
]
