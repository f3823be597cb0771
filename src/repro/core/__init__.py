"""The paper's contribution: the active HTTP/2 serialization attack.

This package contains everything the adversary is and measures:

* :mod:`repro.core.monitor` — the tshark-equivalent traffic monitor
  (GET detection from cleartext TLS content types and packet sizes),
* :mod:`repro.core.estimator` — passive object-size estimation from
  encrypted traffic (the Figure 1 delimiter heuristic),
* :mod:`repro.core.metrics` — the degree-of-multiplexing metric (§II-A)
  computed from ground truth, used to score the attack,
* :mod:`repro.core.controller` — the network controller: request
  spacing (jitter), bandwidth throttling, targeted drops (§IV),
* :mod:`repro.core.adversary` — the attack state machine tying the
  phases together (§V),
* :mod:`repro.core.predictor` — the size→identity prediction module,
* :mod:`repro.core.sequence` — the full Table II sequence attack,
* :mod:`repro.core.analysis` — partial-multiplexing inference
  (future work, §VII),
* :mod:`repro.core.defenses` — the priority-randomization defense
  sketched in §VII.
"""
