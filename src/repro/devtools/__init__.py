"""Developer tooling — the static invariant linter and its runtime
complement.

* :mod:`repro.devtools.lint` — ``reprolint`` driver
  (``python -m repro.devtools.lint`` / ``fouryears lint``): one pass of
  every rule, inline suppressions, text and SARIF reporters.
* :mod:`repro.devtools.rules` — the RPL rule catalog and the syntactic
  RPL001/RPL002 checkers.
* :mod:`repro.devtools.dataflow` — abstract-interpretation engine:
  per-function CFGs (:mod:`~repro.devtools.cfg`) analyzed to fixpoint
  over a product fact lattice (:mod:`~repro.devtools.lattice`) for the
  RPL101/102/104 unit and order rules and interprocedural RPL001/RPL002
  via call-graph summaries.
* :mod:`repro.devtools.effects` / :mod:`~repro.devtools.effect_rules` —
  blocking-effect summaries and the RPL201/RPL202 event-loop rules.
* :mod:`repro.devtools.sarif` — SARIF 2.1.0 reporter for code-scanning
  upload (``--format sarif``).
* :mod:`repro.devtools.sanitize` — runtime sanitizer that asserts
  store arrays are frozen and hash-guards dataset fingerprints across
  analysis calls.

Nothing here is imported by the library itself; the package is
deliberately dependency-light so the linter can run in CI before the
scientific stack is exercised.
"""
