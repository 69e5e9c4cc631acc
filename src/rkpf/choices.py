"""The engine's fixed choices that the command line offers.

Each is defined here once, in a module that imports nothing, so that the CLI
builds its parser, and answers --help, --version and a bad flag, without
loading numpy or an estimator. The modules that use them import them from here.
"""

# covariance of a fit's coefficients (rkpf.estimation)
COVARIANCE_KINDS = ("classical", "cluster_by_region")

# the paper's seven-model ladder, from pooled OLS up to the full two-way FE SLX
# model: the comparison `rkpf suite` runs by default (rkpf.suite)
MAIN_TAGS = (
    "ols.q",
    "fe.tw",
    "fe.ow.q",
    "fe.tw.q",
    "fe.tw.q.sl.non",
    "fe.tw.q.sl.noq",
    "fe.tw.q.sl",
)

# replication streams are spawned up front, one SeedSequence each (rkpf.simulate)
MAX_REPLICATIONS = 100_000
