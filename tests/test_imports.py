"""Every module of the package uses each name it imports, reads no
private name of another package module and no private `fractions` API,
plants no value on an object from outside its constructor, every
function, class and method it defines is reached from outside tests, and
every field of a record class (a subclass of `market.Record`) it
declares is read outside tests; no record class writes its own
``__init__`` or names in ``_compared`` or ``_derived`` a field it does
not declare; the exact modules, `ironing`, `lp`, `market`, `oracles`,
`splitmatch` and `steps`, use no float; and starting the CLI imports
neither `dataclasses` nor `inspect`.

No linter is a dependency, so these stdlib checks stand in for one.
"""

from __future__ import annotations

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fairsignal"
MODULES = sorted(PACKAGE.glob("*.py"))
BENCHMARK = sorted((ROOT / "perfbench").glob("*.py"))

# Definitions that only tests reach, on purpose.  Each needs a reason.
TEST_ORACLES = (
    (
        "splitmatch.truncated_upper_bound",
        "the lemma c04 checks the greedy decomposition against; the "
        "hull bound (`verify --bound`) is to make it runtime code",
    ),
)

# Record fields that no code outside the tests reads, on purpose.  Each
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


# A fresh start of the CLI imports the package and builds its parser; the
# child lists the modules that added beyond those it started with, so a
# site hook that preloads modules changes nothing.
START = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "import fairsignal.cli\n"
    "fairsignal.cli.make_parser()\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
)


def test_cli_start_imports_neither_dataclasses_nor_inspect():
    # the two take about 10 ms of each start on a 2-vCPU VM, and the
    # package's records are plain classes that need neither
    path = [str(ROOT / "src"), *os.environ.get("PYTHONPATH", "").split(os.pathsep)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    child = subprocess.run(
        [sys.executable, "-c", START], env=env, capture_output=True, text=True, check=True
    )
    added = set(child.stdout.split())
    assert "fairsignal.cli" in added
    assert not added & {"dataclasses", "inspect"}


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
        "fileio._write_text(as_fraction(_digits), fileio.__name__)\n"
        "_own = fileio.load_scheme\n"
    )
    assert private_reads(source) == ["market._digits (line 2)", "fileio._write_text (line 3)"]


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


def _is_object_call(node: ast.AST, attr: str) -> bool:
    """True for a call ``object.<attr>(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == attr
        and getattr(node.func.value, "id", "") == "object"
    )


def _own_nodes(scope: ast.AST):
    """The nodes of a module or function body, not those of a function,
    lambda or class nested in it."""
    stack = list(scope.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def planted_attributes(source: str) -> list[str]:
    """Each write onto an object from outside its constructor: an
    ``object.__setattr__`` whose first argument is neither ``self`` nor a
    name the same function bound from ``object.__new__``, and each call of
    ``vars``."""
    tree = ast.parse(source)
    out = []
    for scope in [tree] + [
        node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]:
        nodes = list(_own_nodes(scope))
        fresh = {"self"} if scope is not tree else set()
        for node in nodes:
            if isinstance(node, ast.Assign) and _is_object_call(node.value, "__new__"):
                fresh |= {target.id for target in node.targets if isinstance(target, ast.Name)}
        for node in nodes:
            if _is_object_call(node, "__setattr__"):
                target = node.args[0] if node.args else None
                if not (isinstance(target, ast.Name) and target.id in fresh):
                    out.append((node.lineno, "object.__setattr__"))
            elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "vars":
                out.append((node.lineno, "vars("))
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_the_check_sees_a_planted_attribute():
    source = (
        "class Box:\n    def __post_init__(self):\n"
        "        object.__setattr__(self, 'size', 1)\n"
        "    @classmethod\n    def made(cls):\n        box = object.__new__(cls)\n"
        "        object.__setattr__(box, 'size', 2)\n        return box\n"
        "    def grown(self, other):\n        object.__setattr__(other, 'size', 3)\n"
        "        def inner(box):\n            object.__setattr__(box, 'size', 4)\n"
        "        return vars(other)\n"
        "def plant(box):\n    object.__setattr__(box.inner, 'size', 5)\n"
        "object.__setattr__(Box, 'size', 6)\n"
    )
    assert planted_attributes(source) == [
        "object.__setattr__ (line 10)",
        "object.__setattr__ (line 12)",
        "vars( (line 13)",
        "object.__setattr__ (line 15)",
        "object.__setattr__ (line 16)",
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_plants_no_attribute(path):
    assert planted_attributes(path.read_text(encoding="utf-8")) == []


# The exact modules: every number they report is a rational, never a float.
EXACT = ("ironing.py", "lp.py", "market.py", "oracles.py", "splitmatch.py", "steps.py")
# The `math` names that take and give ints only; any other reads or makes a float.
INT_MATH = ("gcd", "lcm", "isqrt", "comb", "perm", "factorial")


def float_uses(source: str) -> list[str]:
    """Each float in ``source``: a float literal, a ``float(`` call, and
    any `math` name outside INT_MATH, read or imported."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") == "float":
            out.append((node.lineno, "float("))
        elif isinstance(node, ast.Attribute) and node.attr not in INT_MATH:
            if getattr(node.value, "id", "") == "math":
                out.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [alias.name for alias in node.names if alias.name not in INT_MATH]
            out += [(node.lineno, f"math.{name}") for name in names]
    return [f"{name} (line {line})" for line, name in sorted(out)]


def test_the_check_sees_a_float():
    source = (
        "import math\nfrom math import gcd, isclose\n"
        "a = float(1) + 0.5 + 1e3 + math.inf\nb = math.lcm(2, 3) + gcd(4, 6)\n"
        "c = math.log(a) > 10**3 and isclose(a, b)\n"
        "d = math.exp(c) + math.sqrt(math.isqrt(9))\n"
    )
    assert float_uses(source) == [
        "math.isclose (line 2)",
        "0.5 (line 3)",
        "1000.0 (line 3)",
        "float( (line 3)",
        "math.inf (line 3)",
        "math.log (line 5)",
        "math.exp (line 6)",
        "math.sqrt (line 6)",
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


def record_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """Every top-level class with ``Record`` (or ``module.Record``) among
    its bases."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and "Record"
        in [
            base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
            for base in node.bases
        ]
    ]


def annotated_fields(node: ast.ClassDef) -> list[str]:
    return [
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def record_fields(module: str, tree: ast.Module) -> list[tuple[str, str]]:
    """(``module.Class.field``, field) for every annotated field of every
    record class."""
    return [
        (f"{module}.{node.name}.{field}", field)
        for node in record_classes(tree)
        for field in annotated_fields(node)
    ]


def declaration_faults(module: str, tree: ast.Module) -> list[str]:
    """Each ``__init__`` a record class defines, where `Record.__init__`
    binds the fields, and each name its ``_compared`` or ``_derived`` gives
    that is not one of its annotated fields."""
    out = []
    for node in record_classes(tree):
        fields = annotated_fields(node)
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                out.append(f"{module}.{node.name}.__init__")
            if not isinstance(item, ast.Assign):
                continue
            for target in item.targets:
                if getattr(target, "id", "") in ("_compared", "_derived"):
                    names = ast.literal_eval(item.value)
                    out += [
                        f"{module}.{node.name}.{target.id}: {name}"
                        for name in names
                        if name not in fields
                    ]
    return out


def test_the_check_sees_a_faulty_declaration():
    source = (
        "from . import market\n"
        "\nclass Pair(market.Record):\n    _compared = ('low', 'hihg')\n"
        "    _derived = ('width',)\n    low: int\n    high: int\n    width: int\n"
        "\nclass Box(market.Record):\n    _derived = ('sise',)\n    size: int\n"
        "    def __init__(self, size):\n        pass\n"
        "\nclass Plain:\n    _compared = ('spare',)\n    def __init__(self):\n        pass\n"
    )
    assert declaration_faults("a", ast.parse(source)) == [
        "a.Pair._compared: hihg", "a.Box._derived: sise", "a.Box.__init__"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_declare_their_fields_once(path):
    # the constructor, equality, hash and repr read the annotations, so a
    # name outside them or a hand-written __init__ would go unnoticed
    assert declaration_faults(path.stem, ast.parse(path.read_text(encoding="utf-8"))) == []


def unread_fields(sources: dict[str, str], benchmark: list[str]) -> list[str]:
    """Record fields declared in ``sources`` (module name -> code) whose
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
        for qualified, field in record_fields(module, tree)
        if field not in read
    ]


def test_the_check_sees_an_unread_field():
    sources = {
        "a": "from .market import Record\n"
        "\nclass Pair(Record):\n    _compared = ('low', 'high')\n    low: int\n    high: int\n"
        "    spare: int\n\n    def width(self):\n"
        "        return self.high - self.low\n"
        "\nclass Plain:\n    unused: int\n",
        "b": "from . import market\n\nclass Box(market.Record):\n"
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
