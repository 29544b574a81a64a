"""depscope: dependency-tree vulnerability and lifecycle analysis."""

from depscope.analysis import (
    AnnotatedTree,
    classify_responsibility,
    extract_vulnerable_paths,
    filter_non_deployed,
    group_path,
    match_vulnerabilities,
)
from depscope.ingest import (
    load_release_history,
    load_vuln_kb,
    parse_tree_json,
    parse_tree_text,
    render_tree_json,
)
from depscope.lifecycle import (
    SmoothingConfig,
    expected_release_date,
    last_release_interval,
    library_status,
    release_intervals,
    render_status,
)
from depscope.model import (
    DependencyNode,
    DependencyTree,
    Ga,
    Gav,
    InstanceStatus,
    LibraryStatus,
    Release,
    ReleaseHistories,
    ReleaseHistory,
    Responsibility,
    Scope,
    VulnerabilityKb,
    VulnerabilityRecord,
    VulnerablePath,
    parse_gav,
    same_project,
)
from depscope.report import (
    AggregateReport,
    CensusRow,
    ScanResult,
    aggregate,
    parse_aggregate_json,
    parse_scan_results_json,
    render,
    render_chunks,
    scan,
)
from depscope.simulate import (
    ProjectOutcome,
    SimulationConfig,
    SimulationPool,
    render_simulation,
    simulate,
)

__version__ = "0.1.0"
