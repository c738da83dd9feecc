"""Admissible prime tuples, smooth gaps, and desk-scale empirical scans."""

from .constants import (
    KmEntry,
    SingularSeriesEstimate,
    hl_prediction,
    km_table,
    singular_series,
)
from .errors import CapacityError, FactorBudgetError, TupleParseError
from .primes import (
    PrimeTable,
    is_prime,
    largest_prime_leq,
    primorial,
    sieve_primes,
)
from .scan import (
    ScanReport,
    ScanRequest,
    count_consecutive_smooth_gap_pairs,
    count_smooth_gap_pairs,
    count_tuple_translates,
    run_scan,
)
from .smoothness import (
    SmoothnessCertificate,
    SmoothnessCheck,
    factorize,
    is_smooth,
    smooth_numbers_up_to,
)
from .tuples import (
    AdmissibilityReport,
    DifferenceSmoothness,
    IntegerTuple,
    SearchResult,
    construct_consecutive_prime_tuple,
    construct_primorial_tuple,
    diameter,
    find_smoothness_witness,
    is_admissible,
    is_difference_smooth,
    residue_coverage,
    search_min_diameter_admissible,
    search_min_diameter_difference_smooth,
)

__all__ = [
    "AdmissibilityReport",
    "CapacityError",
    "DifferenceSmoothness",
    "FactorBudgetError",
    "IntegerTuple",
    "KmEntry",
    "PrimeTable",
    "ScanReport",
    "ScanRequest",
    "SearchResult",
    "SingularSeriesEstimate",
    "SmoothnessCertificate",
    "SmoothnessCheck",
    "TupleParseError",
    "construct_consecutive_prime_tuple",
    "construct_primorial_tuple",
    "count_consecutive_smooth_gap_pairs",
    "count_smooth_gap_pairs",
    "count_tuple_translates",
    "diameter",
    "factorize",
    "find_smoothness_witness",
    "hl_prediction",
    "is_admissible",
    "is_difference_smooth",
    "is_prime",
    "is_smooth",
    "km_table",
    "largest_prime_leq",
    "primorial",
    "residue_coverage",
    "run_scan",
    "search_min_diameter_admissible",
    "search_min_diameter_difference_smooth",
    "sieve_primes",
    "singular_series",
    "smooth_numbers_up_to",
]

__version__ = "0.1.0"
