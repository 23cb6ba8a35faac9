"""Contract-verifier tests: the known-bad corpus, noqa, and zero-FP audit.

The corpus holds one minimal bad snippet per rule; each must be flagged
with exactly its own code (no cross-rule noise), which is the acceptance
bar for the analyzer: findings precise enough to gate deployments on.
"""

import ast
import os

import pytest

from repro.analysis import (
    analyze_contract_source,
    analyze_file,
    analyze_paths,
    extract_embedded_contracts,
)
from repro.analysis.engine import iter_python_files
from repro.analysis.findings import Severity
from repro.analysis.registry import all_rules
from repro.common.errors import ContractError
from repro.contracts import library
from repro.contracts.runtime import HOST_FUNCTION_NAMES
from repro.contracts.vm import compile_contract

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: One minimal known-bad snippet per contract rule.  Each fires exactly its
#: own code.  MED008 needs a gas ceiling and is parameterized separately.
BAD_CORPUS = {
    "MED001": "def f(x):\n    return x + time\n",
    "MED002": "def f():\n    return 1.5\n",
    "MED003": "def f(a, b):\n    return a / b\n",
    "MED004": "def f(n):\n    while True:\n        n = n + 1\n    return n\n",
    "MED005": (
        "def f(entry):\n"
        '    storage_set("a", entry)\n'
        '    storage_set("b", entry)\n'
        "    return 1\n"
    ),
    "MED006": "def f():\n    return helper(1)\n",
    "MED007": 'def f():\n    return 1\n    storage_set("k", 2)\n',
    "MED009": "def f(x):\n    return x.append\n",
    "MED010": "def f():\n    return unknown_var + 1\n",
}


class TestBadCorpus:
    @pytest.mark.parametrize("code", sorted(BAD_CORPUS))
    def test_snippet_flagged_with_exactly_its_code(self, code):
        findings = analyze_contract_source(BAD_CORPUS[code])
        assert {f.code for f in findings} == {code}

    def test_med008_gas_ceiling(self):
        source = (
            "def f():\n"
            "    total = 0\n"
            "    for i in range(100):\n"
            '        total = total + storage_get("k", 0)\n'
            "    return total\n"
        )
        findings = analyze_contract_source(source, max_gas=100)
        assert {f.code for f in findings} == {"MED008"}
        # Without a ceiling the rule stays silent.
        assert analyze_contract_source(source) == []

    def test_syntax_error_reported_as_med009(self):
        findings = analyze_contract_source("def f(:\n    return 1\n")
        assert len(findings) == 1
        assert findings[0].code == "MED009"
        assert findings[0].severity is Severity.ERROR

    def test_findings_carry_location_and_symbol(self):
        findings = analyze_contract_source(BAD_CORPUS["MED002"])
        (finding,) = findings
        assert finding.line == 2
        assert finding.symbol == "f"
        assert finding.severity is Severity.ERROR

    def test_storage_alias_cleared_by_rebinding(self):
        source = (
            "def f(entry):\n"
            '    storage_set("a", entry)\n'
            '    entry = storage_get("a")\n'
            '    storage_set("b", entry)\n'
            "    return 1\n"
        )
        assert analyze_contract_source(source) == []

    def test_bounded_while_not_flagged(self):
        source = (
            "def f(n):\n"
            "    while True:\n"
            "        n = n - 1\n"
            "        if n <= 0:\n"
            "            break\n"
            "    return n\n"
        )
        assert analyze_contract_source(source) == []


class TestSuppressions:
    def test_targeted_noqa_suppresses_only_listed_code(self):
        source = "def f(a, b):\n    return a / 2.0  # repro: noqa[MED002]\n"
        findings = analyze_contract_source(source)
        assert {f.code for f in findings} == {"MED003"}

    def test_blanket_noqa_suppresses_everything_on_line(self):
        source = "def f(a, b):\n    return a / 2.0  # repro: noqa\n"
        assert analyze_contract_source(source) == []

    def test_noqa_on_other_line_does_not_suppress(self):
        source = "def f():  # repro: noqa\n    return 1.5\n"
        findings = analyze_contract_source(source)
        assert {f.code for f in findings} == {"MED002"}


class TestZeroFalsePositives:
    """The acceptance bar: no findings on the shipped contract library."""

    def test_library_contracts_all_clean(self):
        sources = {
            name: getattr(library, name)
            for name in dir(library)
            if name.endswith("_SOURCE")
        }
        assert len(sources) >= 6
        for name, source in sources.items():
            findings = analyze_contract_source(source, file=name)
            assert findings == [], [f.render() for f in findings]

    def test_library_file_embedded_audit_clean(self):
        path = os.path.join(REPO_ROOT, "src", "repro", "contracts", "library.py")
        assert analyze_file(path) == []

    def test_src_repro_and_examples_clean(self):
        paths = [
            os.path.join(REPO_ROOT, "src", "repro"),
            os.path.join(REPO_ROOT, "examples"),
        ]
        result = analyze_paths([p for p in paths if os.path.exists(p)])
        assert result.files_analyzed > 50
        assert result.contracts_analyzed >= 6
        assert result.findings == [], [f.render() for f in result.findings]


class TestEmbeddedContracts:
    def test_embedded_finding_maps_to_host_line(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text(
            "X = 1\n"
            "BAD_SOURCE = '''\n"
            "def f():\n"
            "    return 1.5\n"
            "'''\n"
        )
        findings = analyze_file(str(host))
        (finding,) = findings
        assert finding.code == "MED002"
        assert finding.file == str(host)
        assert finding.line == 4  # the literal's `return 1.5` line in mod.py

    def test_noqa_inside_embedded_literal(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text(
            "BAD_SOURCE = '''\n"
            "def f():\n"
            "    return 1.5  # repro: noqa[MED002]\n"
            "'''\n"
        )
        assert analyze_file(str(host)) == []

    def test_non_contract_string_constants_ignored(self, tmp_path):
        host = tmp_path / "mod.py"
        host.write_text('QUERY_SOURCE = "just a plain string"\n')
        assert analyze_file(str(host)) == []


class TestRuleCatalog:
    def test_every_contract_rule_has_a_corpus_entry(self):
        contract_codes = {
            rule.code for rule in all_rules() if rule.family == "contract"
        }
        covered = set(BAD_CORPUS) | {"MED008"}
        assert covered == contract_codes

    def test_rule_codes_unique_and_stable(self):
        rules = all_rules()
        codes = [rule.code for rule in rules]
        assert codes == sorted(set(codes))
        assert all(code.startswith("MED") for code in codes)


#: The rules that report the shared MedScript subset scan.
SUBSET_CODES = {"MED002", "MED003", "MED009"}

#: name -> (source, rejected).  The VM and the deploy gate must classify
#: every entry the same way, and the way given here.
SUBSET_CASES = {
    # Passed both checks, then failed at runtime on every node.
    "left-shift": ("def f(n):\n    return n << 2\n", True),
    "invert": ("def f(n):\n    return ~n\n", True),
    "matmul": ("def f(n):\n    return n @ n\n", True),
    "dict-unpack": ("def f(d):\n    return {**d}\n", True),
    "kwargs-unpack": (
        "def g(a):\n    return a\ndef f(d):\n    return g(**d)\n",
        True,
    ),
    "del": ("def f(d):\n    del d[1]\n    return d\n", True),
    # Passed the VM check, caught only by the analyzer.
    "set-literal": ("def f():\n    return {1, 2}\n", True),
    "div-assign-cold-branch": (
        "def f(n):\n    if n > 100:\n        n /= 2\n    return n\n",
        True,
    ),
    "complex-literal": ("def f():\n    return 1j * 2\n", True),
    # Passed the analyzer, rejected at deploy.
    "float-constant": ("RATE = 0.5\ndef f():\n    return 1\n", True),
    "chained-constant": ("A = B = 1\ndef f():\n    return A\n", True),
    "call-constant": ("A = len([1])\ndef f():\n    return A\n", True),
    # f-string features the interpreter would silently drop.
    "fstring-format-spec": ('def f(n):\n    return f"{n:>5}"\n', True),
    "fstring-conversion": ('def f(n):\n    return f"{n!r}"\n', True),
    # Compile-time rejections pinned by tests/contracts/test_vm.py.
    "no-functions": ("X = 1\n", True),
    "import": ("def f():\n    import os\n    return 1\n", True),
    "attribute": ("def f(x):\n    return x.append(1)\n", True),
    "float-literal": ("def f():\n    return 1.5\n", True),
    "true-division": ("def f():\n    return 4 / 2\n", True),
    "lambda": ("def f():\n    g = lambda: 1\n    return g()\n", True),
    "comprehension": ("def f():\n    return [i for i in range(3)]\n", True),
    "nested-function": (
        "def f():\n    def g():\n        return 1\n    return g()\n",
        True,
    ),
    "syntax-error": ("def f(:\n", True),
    "loops-nested-too-deep": (
        "def f():\n"
        + "".join(f"{'    ' * (i + 1)}while False:\n" for i in range(13))
        + "    " * 14 + "pass\n",
        True,
    ),
    # Inside the subset.
    "plain-fstring": ('def f(name):\n    return f"hi {name}"\n', False),
    "literal-constants": (
        "LIMIT = -3\nTABLE = {'a': [1, (2, 'x')], 'b': None}\n"
        "def f(x=4):\n    return LIMIT + x\n",
        False,
    ),
    "slices-and-unpacking": (
        "def f(xs):\n    a, b = xs[1:3]\n    xs[0] += a // b\n    return xs\n",
        False,
    ),
}


def _embedded_contracts():
    paths = [os.path.join(REPO_ROOT, top) for top in ("src", "examples", "benchmarks")]
    out = []
    for path in iter_python_files(p for p in paths if os.path.exists(p)):
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for name, _line, source in extract_embedded_contracts(tree):
            out.append(pytest.param(source.lstrip("\n"), id=name))
    return out


class TestVmAgreement:
    """One subset: ``compile_contract`` raises iff the gate reports it."""

    @pytest.mark.parametrize("name", sorted(SUBSET_CASES))
    def test_vm_and_gate_agree(self, name):
        source, rejected = SUBSET_CASES[name]
        try:
            # Whatever the VM accepts must also lower to Python.
            compile_contract(source).program(HOST_FUNCTION_NAMES)
            vm_rejects = False
        except ContractError:
            vm_rejects = True
        gate_rejects = any(
            finding.code in SUBSET_CODES and finding.severity is Severity.ERROR
            for finding in analyze_contract_source(source, taint=False)
        )
        assert vm_rejects == gate_rejects == rejected

    @pytest.mark.parametrize("source", _embedded_contracts())
    def test_embedded_contracts_inside_subset(self, source):
        compile_contract(source).program(HOST_FUNCTION_NAMES)
        findings = analyze_contract_source(source, taint=False)
        assert not [f.render() for f in findings if f.code in SUBSET_CODES]

    def test_every_library_contract_is_embedded(self):
        names = {param.id for param in _embedded_contracts()}
        assert {name for name in dir(library) if name.endswith("_SOURCE")} <= names
