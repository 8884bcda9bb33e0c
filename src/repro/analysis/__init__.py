"""detlint — a determinism-contract static analyzer for this repo.

Every layer of the stack stakes its bit-exactness guarantees on code
*conventions*: matmul-shaped reductions go through
``np.einsum(optimize=False)`` instead of BLAS ``@``; order-sensitive
float accumulations use ``fp16_tree_sum`` or a documented
shape-stable reduction; directory scans are sorted before they feed
artifacts; RNGs are seeded ``np.random.Generator`` instances;
pool-backed KV state is copied (never aliased) across ownership
boundaries; and worker processes route through
:mod:`repro.core.procutil`.  detlint mechanizes those conventions as
AST rules so that "accidentally nondeterministic" is a lint failure
instead of a flaky token-identity test three layers downstream.

The package is laid out as:

* :mod:`repro.analysis.registry` — :class:`Rule` / :class:`Finding`
  models and the pluggable rule registry (:func:`register_rule`);
* :mod:`repro.analysis.contracts` — per-module determinism contracts
  declared in a committed ``detlint.toml``;
* :mod:`repro.analysis.suppress` — inline
  ``# detlint: ignore[RULE]: justification`` suppressions (hygiene is
  itself linted: a bare ignore or a missing justification is a
  finding, and stale suppressions are reported under ``--strict``);
* :mod:`repro.analysis.rules` — the shipped determinism rules
  (D001–D008), each targeting a failure mode this repo has actually
  hit or defended against;
* :mod:`repro.analysis.runner` — file walking, rule dispatch,
  suppression application and text/JSON reporting behind
  ``python -m repro lint``.

The package is pure stdlib (no numpy import) so it can lint the tree
from any environment that can parse it.
"""

from repro.analysis import rules as _rules  # noqa: F401  (registers the rule set)
from repro.analysis.contracts import (
    LintConfig,
    ModuleContract,
    find_config,
    load_config,
)
from repro.analysis.registry import (
    Finding,
    Rule,
    get_rule,
    list_rules,
    register_rule,
    rule_ids,
    unregister_rule,
)
from repro.analysis.runner import LintReport, lint_paths, render_findings
from repro.analysis.suppress import Suppression, parse_suppressions

__all__ = [
    "Finding",
    "LintConfig",
    "LintReport",
    "ModuleContract",
    "Rule",
    "Suppression",
    "find_config",
    "get_rule",
    "lint_paths",
    "list_rules",
    "load_config",
    "parse_suppressions",
    "register_rule",
    "render_findings",
    "rule_ids",
    "unregister_rule",
]
