"""Compression of i.i.d. samples into short, decodable bitstreams.

Three schemes share a container format: 'int' losslessly encodes a multiset
of positive integers through sorted differences; 'unit' encodes laws with a
non-increasing density on [0, 1] through occupied dyadic rectangles of the
density's hypograph; 'halfline' composes the two for non-increasing
densities on [0, inf).  Decoders regenerate n i.i.d. samples (exactly the
encoded multiset, in fresh order, for 'int') from the bitstream alone.
Companion analysis tools give closed-form expected-length ceilings that
grow sublinearly in n, exact expected-length enumeration, and statistical
verification of the decoded law.
"""

from .bounds_analysis import (
    check_majorization,
    chi_square,
    desimulate_any,
    empirical_length,
    exact_expected_length_unit,
    ks_two_sample,
    loglog_slope,
    paper_gamma_accounting,
    reference_bound,
    simulate_any,
    thm1_bound,
    thm2_bound,
    thm3_bound,
    thm4_bound,
    verify_trial,
)
from .bitcodes import (
    BitSink,
    BitSource,
    FormatError,
    TruncatedStreamError,
    gamma_decode,
    gamma_encode,
    gamma_length,
    read_container,
    shifted_gamma_decode,
    shifted_gamma_encode,
    write_container,
)
from .distributions import (
    IntegerDistribution,
    MonotonePdf,
    TailParams,
    builtin,
    exponential,
    geometric,
    pareto_flat,
    parse_spec,
    triangular,
    validate_tail,
    zipf,
)
from .dyadic_codec import DepthExceededError, locate, rect_area, rect_bounds
from .halfline_codec import restrict_to_bin
from .integer_codec import decode_multiset, encode_multiset
from .rng import RandomSource

__version__ = "0.1.0"
