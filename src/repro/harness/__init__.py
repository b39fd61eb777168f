"""Profile-driven workload & benchmark orchestration.

The harness layer turns the repository's constructions into a
reproducible perf record:

* :mod:`repro.harness.profiles` — the registry of named, seeded workload
  profiles (graph family × size tier × algorithm × parameters);
* :mod:`repro.harness.runner` — executes profiles, timing construction
  and certification separately and sampling peak memory;
* :mod:`repro.harness.queries` — seeded query mixes served through a
  :class:`~repro.oracle.DistanceOracle` (the schema-4 ``queries`` block);
* :mod:`repro.harness.loadgen` — closed/open-loop load generation
  against the :mod:`repro.serve` daemon (the schema-6 ``load`` block);
* :mod:`repro.harness.results` — schema-versioned JSON reports plus the
  regression/improvement comparison gate.

Entry point: ``python -m repro bench`` (see :mod:`repro.cli`).
"""

from repro.harness.profiles import (
    FAMILIES,
    HUGE_TIER,
    TIERS,
    Profile,
    all_profiles,
    congest_profiles,
    get_profile,
    huge_profiles,
    profile_names,
    register,
)
from repro.harness.loadgen import (
    ARRIVALS,
    MODES,
    LevelResult,
    build_profile_structure,
    drive_load,
    launch_daemon,
    request_schedule,
    run_closed_level,
    run_open_level,
    schedule_bytes,
    schedule_digest,
    stop_daemon,
)
from repro.harness.queries import (
    QUERY_MIXES,
    QueryMix,
    build_query_mix,
    run_query_workload,
)
from repro.harness.runner import (
    ALGORITHMS,
    CONGEST_ALGORITHMS,
    KERNEL_ALGORITHMS,
    QUERYABLE_ALGORITHMS,
    SPANNER_CERTIFIED_ALGORITHMS,
    STRUCTURE_EXTRACTORS,
    NetStats,
    ProfileRecord,
    queryable_profiles,
    run_profile,
    run_suite,
)
from repro.harness.results import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    Comparison,
    Delta,
    compare_reports,
    environment_metadata,
    load_report,
    make_report,
    report_records,
    write_report,
)

__all__ = [
    "FAMILIES",
    "HUGE_TIER",
    "TIERS",
    "Profile",
    "all_profiles",
    "congest_profiles",
    "get_profile",
    "huge_profiles",
    "profile_names",
    "register",
    "ARRIVALS",
    "MODES",
    "LevelResult",
    "build_profile_structure",
    "drive_load",
    "launch_daemon",
    "request_schedule",
    "run_closed_level",
    "run_open_level",
    "schedule_bytes",
    "schedule_digest",
    "stop_daemon",
    "QUERY_MIXES",
    "QueryMix",
    "build_query_mix",
    "run_query_workload",
    "ALGORITHMS",
    "CONGEST_ALGORITHMS",
    "KERNEL_ALGORITHMS",
    "QUERYABLE_ALGORITHMS",
    "SPANNER_CERTIFIED_ALGORITHMS",
    "STRUCTURE_EXTRACTORS",
    "NetStats",
    "ProfileRecord",
    "queryable_profiles",
    "run_profile",
    "run_suite",
    "SCHEMA_NAME",
    "SCHEMA_VERSION",
    "Comparison",
    "Delta",
    "compare_reports",
    "environment_metadata",
    "load_report",
    "make_report",
    "report_records",
    "write_report",
]
