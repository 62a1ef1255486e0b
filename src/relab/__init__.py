"""relab: a reproducible replication engine for sandboxed dropout-prediction experiments.

The engine executes four-stage experiment pipelines (extract, train, test,
evaluate) against registered course data under an execute-against access
policy: experiment code runs in a sandbox with a read-only data mount, and
only allowlisted outputs leave. Completed trials are content-addressed,
cached, and exportable as deterministic bundles that can be imported and
re-executed elsewhere.
"""

__version__ = "0.2.0"

# The engine version participates in trial identity and in every cache
# key; bump it whenever a change can alter stage outputs or report bytes.
ENGINE_VERSION = __version__
