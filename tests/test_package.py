"""The package's public names: the same objects, loaded on first use."""

from __future__ import annotations

import ast
import json
import re
import subprocess
import sys

import pytest

import quiver_regrade
from conftest import SRC_DIR

REPO_DIR = SRC_DIR.parent

# every name the package exports, by the module that defines it
PUBLIC = {
    "fields": "DEFAULT_PRIME GF PRIME_ENV_VAR QQ Field PrimeField Rationals default_prime "
    "parse_field_spec",
    "fileformat": "Diagnostic PresentationError parse_presentation serialize_presentation",
    "hilbert": "DEFAULT_MAX_DEGREE HilbertRow graded_dim graded_dim_naive hilbert_table",
    "linalg": "Matrix kernel_basis rank rank_naive",
    "paths": "IdealPresentation Path PathCountLimit PathSum UniformElement enumerate_paths "
    "format_path_sum multiply_paths multiply_sums path_from_arrows trivial_path "
    "uniform_components",
    "quiver": "Arrow WeightedQuiver validate weight_discrepancy",
    "regrade": "DiscrepancyLimit RegradeResult SplitError SplitTrace pick_split_target regrade "
    "rewrite_ideal rewrite_path rewrite_sum split_arrow",
    "representation": "DegreeWindow GradedMorphism GradedRep MorphismSquareError "
    "QuiverMismatchError WindowOverflowError collapse_morphism collapse_rep collapse_rep_along "
    "compose_morphisms counit evaluate_path evaluate_relation expand_morphism expand_rep "
    "expand_rep_along morphism_cokernel morphism_kernel satisfies shift",
    "verify": "PropertyResult SuiteConfig SuiteReport render_reports run_suites",
}
NAMES = [name for names in PUBLIC.values() for name in names.split()]


def _fresh(script: str, *args: str) -> str:
    """Run ``script`` in a fresh interpreter from the repository root; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True, cwd=REPO_DIR
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_name_is_its_defining_modules_object():
    # in a fresh interpreter, so that the lazy names are first read here
    script = (
        "import importlib, json, sys\n"
        "import quiver_regrade\n"
        "print(json.dumps([f'{m}.{n}' for m, names in json.loads(sys.argv[1]).items()\n"
        "    for n in names.split() if getattr(quiver_regrade, n) is not\n"
        "    getattr(importlib.import_module('quiver_regrade.' + m), n)]))\n"
    )
    assert json.loads(_fresh(script, json.dumps(PUBLIC))) == []


def test_regrade_stays_the_function():
    script = (
        "import sys\n"
        "import quiver_regrade.regrade\n"
        "from quiver_regrade import regrade as before\n"
        "from quiver_regrade.cli import main\n"
        "main(['verify', '--suite', 'split', '--trials', '1'])\n"
        "from quiver_regrade import regrade as after\n"
        "function = sys.modules['quiver_regrade.regrade'].regrade\n"
        "print(before is function, after is function, quiver_regrade.regrade is function)\n"
    )
    assert _fresh(script).split()[-3:] == ["True", "True", "True"]


def test_dir_and_all_list_every_name():
    assert sorted(quiver_regrade.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(quiver_regrade))
    namespace: dict = {}
    exec("from quiver_regrade import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quiver_regrade.no_such_name  # noqa: B018
    from quiver_regrade import verify

    assert verify is sys.modules["quiver_regrade.verify"]


def test_readme_library_example():
    # run as written in a fresh interpreter; its last expression is compared
    # with the comment under it
    readme = (REPO_DIR / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## Library\n\n```python\n(.*?)```", readme, re.S).group(1)
    *code, comment = block.rstrip("\n").splitlines()
    assert comment.startswith("# ")
    tree = ast.parse("\n".join(code))
    last = tree.body.pop()
    assert isinstance(last, ast.Expr)
    script = f"{ast.unparse(tree)}\nprint(repr({ast.unparse(last.value)}))\n"
    assert _fresh(script).strip() == comment.removeprefix("# ")
