"""cyclodes: cyclotomic almost-difference-set constructions over GF(2) x GF(q).

Exact (integer-only) toolkit for cyclotomic classes and cyclotomic numbers,
Jacobi sums in Z[beta] for the 12th root of unity beta, product-set ADS
constructions at orders 4-12 with the conditions of orders 4 and 12,
exhaustive searches at orders 4-12, and the derived binary sequences with
three-level autocorrelation.
"""

from .adsets import (CharacteristicSet, DifferenceSpectrum, SetClassification,
                     classify, distance_spectrum)
from .cyclotomy import (CaseClassification, CyclotomicSystem,
                        QuadraticPartition, build_classes, c_parameter, classify_case,
                        cyclotomic_numbers, jacobi_sum, m1_predicted,
                        quadratic_partitions, resolve_signs, stratum_spectrum)
from .dhm import (Recipe, build, calibrate_order12, corollary_triples, predicted_dI,
                  predicted_dIJ, theorem12_pairs, theorem_parameters, triple_recipe,
                  verify_family)
from .ff import IndexTable, build_index_table, find_primitive_root, is_prime
from .search import SearchHit, cross_prime_family_report, exhaustive_search
from .seqkit import (AutocorrelationProfile, BinarySequence, autocorrelation,
                     characteristic_sequence, classify_sequence, crt_flatten,
                     set_sequence)

__version__ = "0.1.0"
