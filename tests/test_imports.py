"""Every module of the package uses each name it imports, reads no
private name of another package module and no private `fractions` API,
every function, class and method it defines is reached from outside
tests, and every dataclass field it declares is read outside tests; the
exact modules, `ironing`, `lp`, `market`, `oracles` and `splitmatch`, use
no float.

No linter is a dependency, so these stdlib checks stand in for one.
``__init__.py`` is exempt from the first and the last: its imports are
the package's public names, and exporting a name does not make it
reachable.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairsignal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions that only tests reach, on purpose.  Each needs a reason.
TEST_ORACLES = (
    (
        "splitmatch.truncated_upper_bound",
        "the lemma c04 checks the greedy decomposition against; the "
        "hull bound (`verify --bound`) is to make it runtime code",
    ),
)

# Dataclass fields that no code outside the tests reads, on purpose.  Each
# needs a reason.
_TRACE = "a pipeline artifact for the trace files of `build --trace DIR`"
ARTIFACTS = (
    ("ironing.IroningInterval.left", _TRACE),
    ("ironing.IroningInterval.right", _TRACE),
    ("ironing.RectanglePair.plus_left", _TRACE),
    ("ironing.RectanglePair.minus_left", _TRACE),
    ("ironing.FairSchemeResult.base", _TRACE),
    ("ironing.FairSchemeResult.ironed", _TRACE),
    ("ironing.FairSchemeResult.pairings", _TRACE),
    ("ironing.FairSchemeResult.smoothed", _TRACE),
    ("lp.LPResult.point", "the optimal point, which the tests check as a witness"),
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    source = "from .market import InvariantViolation, MarketError\nraise MarketError\n"
    assert unused_imports(source) == ["InvariantViolation (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def private_reads(source: str) -> list[str]:
    """``module._name`` for each underscore name (not a dunder) that
    ``source`` imports from, or reads as an attribute of, a module of the
    package."""
    tree = ast.parse(source)
    modules, out = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    out.append((node.lineno, f"{node.module}.{alias.name}"))
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            out.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_the_check_sees_a_private_read():
    source = (
        "from . import fileio\nfrom .market import _digits, as_fraction\n"
        "fileio._dump_json(as_fraction(_digits), fileio.__name__)\n"
        "_own = fileio.load_scheme\n"
    )
    assert private_reads(source) == ["market._digits (line 2)", "fileio._dump_json (line 3)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_reads_no_private_name_of_another(path):
    assert private_reads(path.read_text(encoding="utf-8")) == []


# Private parts of `fractions.Fraction` that a reader of a Fraction's
# internals might reach for.  Python 3.12 removed the ``_normalize``
# keyword, so code that uses any of them can break with the next Python;
# `market.pair_product` and `market.pair_sum` are the supported route to
# reduced-pair arithmetic.
FRACTION_INTERNALS = ("_normalize", "_numerator", "_denominator", "_from_coprime_ints")


def private_fraction_uses(source: str) -> list[str]:
    """Each use of private `fractions` API in ``source``: a keyword or an
    attribute named in FRACTION_INTERNALS, an underscore attribute (not a
    dunder) of ``Fraction`` or ``fractions`` (``Fraction._add``), or an
    underscore name imported from ``fractions``."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            out += [(node.lineno, alias.name) for alias in node.names if alias.name.startswith("_")]
        elif isinstance(node, ast.keyword) and node.arg in FRACTION_INTERNALS:
            out.append((node.lineno, f"{node.arg}="))
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            owner = node.value
            owner = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", "")
            private = owner in ("Fraction", "fractions") and not node.attr.endswith("__")
            if private or node.attr in FRACTION_INTERNALS:
                out.append((node.lineno, f"{owner}.{node.attr}"))
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_the_check_sees_private_fraction_api():
    source = (
        "import fractions\nfrom fractions import Fraction, _RATIONAL_FORMAT\n"
        "a = Fraction(1, 2, _normalize=False)\n"
        "b = Fraction._add(a, a) + fractions.Fraction._mul(a, a)\n"
        "c = a._numerator + Fraction.__add__(a, a).numerator + fractions.__name__\n"
    )
    assert private_fraction_uses(source) == [
        "_RATIONAL_FORMAT (line 2)",
        "_normalize= (line 3)",
        "Fraction._add (line 4)",
        "Fraction._mul (line 4)",
        "a._numerator (line 5)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_private_fraction_api(path):
    assert private_fraction_uses(path.read_text(encoding="utf-8")) == []


# The exact modules: every number they report is a rational, never a float.
EXACT = ("ironing.py", "lp.py", "market.py", "oracles.py", "splitmatch.py")
FLOAT_MATH = ("inf", "log", "isclose")


def float_uses(source: str) -> list[str]:
    """Each float in ``source``: a float literal, a ``float(`` call, and
    ``math.inf``, ``math.log`` or ``math.isclose``, read or imported."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "float":
            out.append((node.lineno, "float("))
        elif isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH:
            if getattr(node.value, "id", "") == "math":
                out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name in FLOAT_MATH]
            out += [(node.lineno, f"math.{name}") for name in names]
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_the_check_sees_a_float():
    source = (
        "import math\nfrom math import gcd, isclose\n"
        "a = float(1) + 0.5 + 1e3 + math.inf\nb = math.lcm(2, 3) + gcd(4, 6)\n"
        "c = math.log(a) > 10**3 and isclose(a, b)\n"
    )
    assert float_uses(source) == [
        "math.isclose (line 2)",
        "0.5 (line 3)",
        "1000.0 (line 3)",
        "float( (line 3)",
        "math.inf (line 3)",
        "math.log (line 5)",
    ]


@pytest.mark.parametrize("name", EXACT)
def test_exact_module_uses_no_float(name):
    assert float_uses((PACKAGE / name).read_text(encoding="utf-8")) == []


def definitions(module: str, tree: ast.Module) -> list[tuple[str, ast.AST, bool]]:
    """(``module.name``, node, False) for every top-level function and
    class, and (``module.Class.method``, node, True) for every method but a
    dunder."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for node in tree.body:
        if not isinstance(node, kinds):
            continue
        out.append((f"{module}.{node.name}", node, False))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not item.name.startswith("__"):
                    out.append((f"{module}.{node.name}.{item.name}", item, True))
    return out


def references(tree: ast.AST, skip: ast.AST = None) -> tuple[set[str], set[str]]:
    """Names a tree reads outside ``skip``: bare names, and attributes
    together with strings that are a single identifier
    (``setattr(owner, "name", ...)``).  A method is reached only through
    the second set; a bare name of the same spelling is a local."""
    names, attributes = set(), set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                attributes.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names, attributes


def unreachable(sources: dict[str, str], benchmark: list[str]) -> list[str]:
    """Definitions in ``sources`` (module name -> code) that no other code
    of the package, and no benchmark script, refers to by name."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    seen = {module: references(tree) for module, tree in trees.items()}
    scripts = [references(ast.parse(code)) for code in benchmark]
    out = []
    for module, tree in trees.items():
        others = scripts + [refs for other, refs in seen.items() if other != module]
        for qualified, node, is_method in definitions(module, tree):
            names, attributes = references(tree, skip=node)
            for more_names, more_attributes in others:
                names |= more_names
                attributes |= more_attributes
            if node.name not in attributes and (is_method or node.name not in names):
                out.append(qualified)
    return out


def test_the_check_sees_an_unreachable_definition():
    sources = {
        "a": "def used():\n    return helper()\n\ndef helper():\n    return helper()\n"
        "\ndef traced():\n    pass\n"
        "\nclass Box:\n    def __len__(self):\n        return 0\n"
        "\n    def size(self):\n        return self.size()\n"
        "\n    def area(self):\n        area = 1\n        return area\n",
        "b": "from .a import used, Box\nused()\nBox()\n",
    }
    assert unreachable(sources, ["setattr(a, 'traced', None)"]) == ["a.Box.size", "a.Box.area"]
    assert unreachable(sources, []) == ["a.traced", "a.Box.size", "a.Box.area"]
    del sources["b"]
    assert unreachable(sources, []) == ["a.used", "a.traced", "a.Box", "a.Box.size", "a.Box.area"]


def test_every_definition_is_reachable():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    benchmark = [p.read_text(encoding="utf-8") for p in BENCHMARK]
    found = unreachable(sources, benchmark)
    oracles = [name for name, _ in TEST_ORACLES]
    extra = sorted(set(found) - set(oracles))
    assert not extra, f"reached only by tests: {extra}"
    assert set(oracles) <= set(found), "a listed test oracle is now reachable"


def dataclass_fields(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(``module.Class.field``, field) for every annotated field of every
    top-level class decorated with ``dataclass``."""
    out = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
            if name == "dataclass":
                break
        else:
            continue
        for item in node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                field = item.target.id
                out.append((f"{module}.{node.name}.{field}", field))
    return out


def unread_fields(sources: dict[str, str], benchmark: list[str]) -> list[str]:
    """Dataclass fields declared in ``sources`` (module name -> code) whose
    name no attribute read (``x.field`` in a load) of the package or of a
    benchmark script spells."""
    trees = {module: ast.parse(code) for module, code in sources.items()}
    read = set()
    for tree in list(trees.values()) + [ast.parse(code) for code in benchmark]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [
        qualified
        for module, tree in trees.items()
        for qualified, field in dataclass_fields(module, tree)
        if field not in read
    ]


def test_the_check_sees_an_unread_field():
    sources = {
        "a": "from dataclasses import dataclass, field\n"
        "\n@dataclass(frozen=True)\nclass Pair:\n    low: int\n    high: int\n"
        "    spare: int = field(init=False)\n\n    def width(self):\n"
        "        return self.high - self.low\n"
        "\nclass Plain:\n    unused: int\n",
        "b": "import dataclasses\n\n@dataclasses.dataclass\nclass Box:\n"
        "    size: int\n    label: str\n\ndef grow(box):\n    box.spare = box.size\n",
    }
    assert unread_fields(sources, []) == ["a.Pair.spare", "b.Box.label"]
    assert unread_fields(sources, ["print(box.spare, box.label)"]) == []
    sources["a"] = sources["a"].replace("self.high - self.low", "0")
    assert unread_fields(sources, []) == [
        "a.Pair.low", "a.Pair.high", "a.Pair.spare", "b.Box.label"
    ]


def test_every_field_is_read():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in MODULES}
    benchmark = [p.read_text(encoding="utf-8") for p in BENCHMARK]
    found = unread_fields(sources, benchmark)
    artifacts = [name for name, _ in ARTIFACTS]
    extra = sorted(set(found) - set(artifacts))
    assert not extra, f"read only by tests: {extra}"
    assert set(artifacts) <= set(found), "a listed artifact is now read"
