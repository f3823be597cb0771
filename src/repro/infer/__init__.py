"""Statistical object-size inference and the padding-defense frontier.

The paper's attack identifies objects by *near-exact* TLS record-size
matching — which any padding defense trivially breaks.  Morla's HTTP/2
object-size estimation work (arXiv:1707.00641, arXiv:1607.06709) shows
the sizes still leak *statistically* under pipelining and multiplexing.
This package builds both sides of that arms race:

* :mod:`repro.infer.features` — deterministic integer feature vectors
  from middlebox-observed record sequences (lengths, histograms,
  bursts, inter-arrival statistics, cumulative-size curves);
* :mod:`repro.infer.classifiers` — a registry of seeded numpy
  classifiers (nearest-centroid, k-NN, multinomial logistic) next to
  the paper's exact-match baseline;
* :mod:`repro.infer.defenses` — the defense axis (per-record padding to
  block sizes, chaff records, response pipelining) with exact integer
  byte/latency overhead accounting;
* :mod:`repro.infer.dataset` — the seeded observation model gluing the
  zipf page population to features under each defense level;
* :mod:`repro.infer.campaign` — the config both ``repro infer`` and
  the E19 study (:mod:`repro.experiments.infer_study`) run on the
  campaign runner :func:`repro.campaign.engine.run_campaign` (shards,
  checkpoints, supervision, kill-resume); its shard task calls
  :func:`repro.infer.dataset.evaluate_sessions`, the one infer runner.

Everything is integer/fixed-point end to end, so results are
bit-identical across worker counts, shard splits and kill-resume — the
same contract as the rest of the testbed.
"""

from repro.infer.classifiers import (
    CLASSIFIER_REGISTRY,
    Classifier,
    classifier_names,
    resolve_classifier,
)
from repro.infer.defenses import (
    DEFENSE_LEVELS,
    DefenseConfig,
    DefenseOverhead,
    defense_level,
    defense_level_names,
)
from repro.infer.features import (
    FeatureConfig,
    extract_features,
    feature_length,
    invariant_prefix_length,
)

__all__ = [
    "CLASSIFIER_REGISTRY",
    "Classifier",
    "classifier_names",
    "resolve_classifier",
    "DEFENSE_LEVELS",
    "DefenseConfig",
    "DefenseOverhead",
    "defense_level",
    "defense_level_names",
    "FeatureConfig",
    "extract_features",
    "feature_length",
    "invariant_prefix_length",
]
