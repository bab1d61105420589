"""Genuine multipartite correlations of every order, in bits.

corrweave quantifies how strongly an N-party classical or quantum state is
correlated at each order k: the relative-entropy distance from the state
to products over partitions with blocks of at most k parties, the genuine
k-party correlations as consecutive differences of those distances, and
the weaving index as their weighted sum.  Closed forms cover the named
symmetric families to very large N; a brute-force partition search covers
arbitrary states of modest size.
"""

from .closed_forms import (CF_FAMILIES, ClosedFormFamily, SweepPoint,
                           binary_entropy, cf_dist, cf_genuine, cf_profile,
                           cf_scaling_sweep, cf_weaving, dicke_marginal_entropy)
from .correlations import (CorrelationProfile, PartitionMinimum, WeightScheme,
                           closest_product, dist_to_pk, multi_information,
                           neural_complexity, profile, subset_entropies,
                           weaving)
from .errors import (ArgumentError, CapacityError, ConsistencyError,
                     CorrweaveError, NumericError, StateFileError)
from .partitions import (DEFAULT_ENUM_CAP, SetPartition, compact_partition,
                         enumerate_partitions)
from .properties import PropertyResult, run_property_suite
from .random_states import (haar_state, haar_unitary, random_channel,
                            random_classical, random_density,
                            random_product_state)
from .states import (StateFamily, make_a_family, make_bell_product,
                     make_classical, make_classical_pair_product, make_dicke,
                     make_ghz)
from .tensor import (DEFAULT_MAX_DENSE_DIM, DensityState, KrausChannel,
                     apply_channel, is_permutation_invariant,
                     marginal_entropy, max_entry_distance, partial_trace,
                     permute_subsystems, relative_entropy, tensor_product,
                     vn_entropy)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError", "CapacityError", "CF_FAMILIES", "ClosedFormFamily",
    "ConsistencyError", "CorrelationProfile", "CorrweaveError",
    "DEFAULT_ENUM_CAP", "DEFAULT_MAX_DENSE_DIM", "DensityState",
    "KrausChannel", "NumericError", "PartitionMinimum", "PropertyResult",
    "SetPartition", "StateFamily", "StateFileError", "SweepPoint",
    "WeightScheme", "apply_channel", "binary_entropy", "cf_dist",
    "cf_genuine", "cf_profile", "cf_scaling_sweep", "cf_weaving", "closest_product",
    "compact_partition", "dicke_marginal_entropy", "dist_to_pk",
    "enumerate_partitions", "haar_state", "haar_unitary",
    "is_permutation_invariant", "make_a_family",
    "make_bell_product", "make_classical", "make_classical_pair_product",
    "make_dicke", "make_ghz", "marginal_entropy", "max_entry_distance",
    "multi_information", "neural_complexity", "partial_trace",
    "permute_subsystems", "profile", "random_channel", "random_classical",
    "random_density", "random_product_state", "relative_entropy",
    "run_property_suite", "subset_entropies", "tensor_product", "vn_entropy",
    "weaving",
]
