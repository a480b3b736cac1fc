"""Core contribution of the paper: Unbiased Space Saving and its machinery.

Modules
-------
kernel        O(1)/row stream-summary update kernel (Algorithm 1, both variants)
space_saving  High-level Deterministic / Unbiased Space Saving sketch API
exact         Exact-enumeration reference implementation (Theorem 1/2 tests)
weighted      The spill-reduce core: exact accumulation, then unbiased
              reduction (sec 5.3, Theorem 2); weighted Unbiased Space Saving
merge         Unbiased merge of sketches on that core (sec 5.5)
result        Reduced-sketch result type with subset-sum / CI queries
variance      Subset-sum variance estimator (eq. 5) and coverage helpers (sec 6.5)
decay         Forward-decay time-weighted Unbiased Space Saving (sec 5.3)
spark_sketch  DataFrame aggregation: distributed disaggregated subset sums
"""
