"""The named values of the method, scenario and error-bound-policy axes.

Imports nothing, so campaign cells validate against them without loading the
engine or the compressors, which re-export the same tuples.
"""

#: Solver methods a campaign cell runs.  ``jacobi``, ``gmres``, ``cg`` and
#: ``bicgstab`` solve the Eq. (15) Poisson system; ``kkt`` is GMRES(30) with
#: point Jacobi on the synthetic KKT system of Fig. 3.
METHODS = ("jacobi", "gmres", "cg", "bicgstab", "kkt")

#: Failure-model names a scenario accepts.  ``scripted`` (failures at
#: explicit virtual times, via ``failure_params=(("times", (...)),)``) is for
#: deterministic studies and regression tests.
FAILURE_MODELS = ("poisson", "weibull", "bursty", "scripted")

#: The subset valid as a campaign-grid axis: campaign cells cannot carry the
#: explicit times a scripted model needs, so accepting ``scripted`` there
#: would silently cache failure-free runs as FT measurements.
CAMPAIGN_FAILURE_MODELS = ("poisson", "weibull", "bursty")

#: Recovery-level regimes a scenario (and the campaign grid) accepts.
RECOVERY_LEVELS = ("pfs", "fti")

#: Which timeline a checkpoint write runs on: ``blocking`` stalls the solver
#: for the whole write (the paper's model); ``async`` overlaps the storage
#: drain of the same full payload with compute on a second I/O channel.
WRITE_MODES = ("blocking", "async")

#: Which checkpoint-store backend holds (and prices) the payloads.  ``pfs``
#: is the paper's implicit parallel file system, priced by the cluster
#: model's own profile; the others bring the profile of the store they build.
STORE_BACKENDS = ("pfs", "memory", "disk", "object", "chunked")

#: Error-bound policy names accepted as a campaign-grid axis.
BOUND_POLICIES = ("fixed", "value_range", "residual_adaptive")
