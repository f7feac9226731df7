"""Every public name in ``src/repro`` has a reader outside the tests.

A *subject* is a public module-level function, class or assigned constant
under ``src/repro``, or a public method, property or dataclass field of
such a class.  It is *driven* when a read outside its own definition
reaches it, in any of:

* ``src/repro``;
* ``benchmarks/perf/*.py`` (not its tests);
* ``examples/*.py``.

Which reads reach a subject depends on what it is:

* a module-level name: any read of the name, as a variable, an attribute
  or a keyword argument;
* a method: an attribute call ``x.m(...)``, or a plain attribute load
  ``x.m`` when no property or dataclass field in ``src/repro`` has that
  name.  A variable or keyword argument of that name does not;
* a property or dataclass field: a plain attribute load ``x.f``.  A
  constructor keyword writes a field; it does not read it.

A string that is exactly the identifier reaches every kind: anywhere in
``benchmarks/perf`` (the harness binds attributes by string), and
elsewhere only as the name argument of ``getattr``, ``setattr`` or
``hasattr``.  Names in ``import`` statements and inside ``__all__`` do
not count, so a package ``__init__`` that re-exports a name is not a
reader of it.  Neither do the names that a ``def``, a ``class`` or a
parameter binds, so two unread definitions of one name do not keep each
other alive.  Everything defined in the entry-point package
(``repro.api``) is driven; ``repro.bench`` and ``repro.cli`` are held
to the law like any other module.

The scan does not know which object a read reaches, so a same-named load
of a field or property, or a same-named call, still drives a subject:
the test can miss dead code but never flags a name a read of its kind
reaches.  ``ALLOWED`` names the few oracles and fixtures that only the
tests read; an entry that no longer exists, or that has gained a real
reader, fails the test too.

``GONE`` keeps deleted designs deleted: each pattern must match no line
of any file under ``src/``.
"""

from __future__ import annotations

import ast
import functools
import re
import textwrap
from collections import defaultdict
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
PERF = ROOT / "benchmarks" / "perf"

#: Modules (and packages) whose every definition is an entry point.
ENTRY_POINTS = ("repro.api",)

#: ``module:qualname`` of each oracle or fixture only the tests read.
ALLOWED: Dict[str, str] = {
    "repro.accel.pipeline:StepResult.packets_replayed":
        "the periodic fast-forward's one observable: how many packets it jumped",
    "repro.obs.timeline:reconcile_spans":
        "the exact span-to-report oracle of the serving timeline",
    "repro.llama.checkpoint:save_checkpoint":
        "writes the llama2.c files the checkpoint loader tests read",
    "repro.llama.tokenizer:Tokenizer.save":
        "writes the tokenizer files the loader tests read",
    "repro.kvpool.paged_cache:PagedKVCache.fork":
        "builds the sibling caches of the functional step's value tests",
}

#: Designs deleted from ``src/`` and kept out of it: (what, regex).
GONE: Tuple[Tuple[str, str], ...] = (
    # The executor is two recurrences; the process simulation it replaced
    # is a test-side oracle (tests/accel/kernel_oracle.py).
    ("event kernel", r"Simulator|sim\.engine|sim\.stream"),
    # A step's values are computed op-major over a flat program; the
    # recursive per-slot interpreter is a test-side oracle
    # (tests/accel/value_oracle.py).
    ("per-operator interpreter", r"_execute_op"),
    # The step compiler is plain methods over three memos; autotuning is
    # a loop in the miss path, and no graph is kept per context.
    ("compile framework",
     r"PhasePipeline|TileAutotuner|AutotuneOutcome|ShapeBucketSpec"
     r"|compile_signature|graph_for"),
    # A transfer is one issue_split call on the HBM model; the
    # per-transfer port is a test-side oracle.
    ("memory port",
     r"MemoryPort|MemoryBudget|issue_striped|ChannelState"
     r"|ideal_transfer_cycles"),
    # AcceleratorConfig.quant alone says how every weight and KV byte is
    # stored.
    ("second precision decision",
     r"weight_bits|quantize_weights|weight_dtype_bytes|dtype: np\.dtype"),
    # One span type: the executor records cycle-clock Spans and the
    # timeline export alone converts them; the copying merge is a
    # test-side oracle (tests/obs/cycle_merge_oracle.py).
    ("second trace recorder", r"TraceEvent|merge_cycle_trace|sim\.trace"),
    # One step graph: a slot without logits runs the step's body, so no
    # reduced graph is built, lowered, named or checked against it.
    ("second step graph", r"include_logits|nologits|_check_prefix|program_name"),
    # The U280's DDR4 was modelled and priced, but nothing moved a byte
    # through it: weights and KV live in HBM.
    ("write-only DDR model", r"u280_ddr|pj_per_ddr_byte|ddr_bytes"),
    # A fused graph names each region's rule on its operator; no separate
    # tally is computed inside the timed fuse phase.
    ("fusion statistics", r"FusionStats|FusionResult"),
    # Latency and throughput are priced on the simulated clock; the
    # reference decode loop keeps no host clock.
    ("host-clock generation timing", r"GenerationTiming"),
    # A design's footprint is AcceleratorConfig.resources(), checked whole
    # against the platform, not placed block by block.
    ("named resource budget", r"ResourceBudget|new_budget"),
    # Tests compare against generation.generate over the functional
    # checkpoint directly.
    ("reference wrapper", r"reference_generate"),
    # The analytical model is a cycle bracket every run is held to, with
    # no slack; no tolerance and no heuristic prune on a looser bound.
    ("tolerance bracket",
     r"AnalyticalModel|AnalyticalEstimate|check_simulation|prune_factor|prune_above"),
    # An engine step builds one StepRecord and its tracer and registry
    # read it afterwards; nothing emits while the step works.
    ("interleaved step emission",
     r"_snapshot_step_phases|_trace_admissions|_publish_step|_trace_finish"
     r"|set_trace_track|def preemption\("),
    # A tile packet is a value: it names no operator and carries no
    # label, so equal tiles are one object and a batch slot issues its
    # packets as they are; a trace asks OpProgram.labels for the names.
    # (OpProgram is built positionally, so no keyword of either name is
    # written under src/.)
    ("named packets", r"_slot_packet|(^\s*|[(,]\s*)(op_name|label)=(?!\")"),
)


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _assigned_names(node: ast.stmt) -> List[str]:
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [target.id for target in targets if isinstance(target, ast.Name)]


#: What a subject is, which decides the reads that drive it.
MODULE, METHOD, PROPERTY, FIELD = "module", "method", "property", "field"

#: (module, qualname, name, kind, path, first line, last line)
Subject = Tuple[str, str, str, str, Path, int, int]

#: How a name is read: a variable, an attribute call ``x.m(...)``, any
#: other attribute load, an attribute store, a keyword argument, a string.
NAME, CALL, LOAD, STORE, KEYWORD, STRING = (
    "name", "call", "load", "store", "keyword", "string")

#: (identifier, line, kind) of one read.
Read = Tuple[str, int, str]

#: Builtins whose second argument is an attribute name.
_ATTRIBUTE_FUNCTIONS = frozenset({"getattr", "setattr", "hasattr"})


def _decorator_names(node: ast.AST) -> Set[str]:
    names = set()
    for decorator in getattr(node, "decorator_list", ()):
        if isinstance(decorator, ast.Call):
            decorator = decorator.func
        if isinstance(decorator, ast.Name):
            names.add(decorator.id)
        elif isinstance(decorator, ast.Attribute):
            names.add(decorator.attr)
    return names


def _is_property(node: ast.AST) -> bool:
    return bool(_decorator_names(node) & {"property", "cached_property",
                                          "setter", "deleter"})


def _fields(node: ast.ClassDef) -> Iterator[ast.AnnAssign]:
    """The field declarations of a dataclass (none for other classes)."""
    if "dataclass" not in _decorator_names(node):
        return
    for member in node.body:
        if (isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
                and "ClassVar" not in ast.unparse(member.annotation)):
            yield member


def _attribute_names(tree: ast.Module) -> Set[str]:
    """Names of every property and dataclass field defined in ``tree``."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        names.update(field.target.id for field in _fields(node))
        names.update(member.name for member in node.body
                     if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and _is_property(member))
    return names


def _subjects(path: Path, tree: ast.Module) -> Iterator[Subject]:
    module = _module_name(path)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            names = _assigned_names(node)
        for name in names:
            if not _is_public(name):
                continue
            yield module, name, name, MODULE, path, node.lineno, node.end_lineno
            if not isinstance(node, ast.ClassDef):
                continue
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and _is_public(member.name)):
                    kind = PROPERTY if _is_property(member) else METHOD
                    yield (module, f"{name}.{member.name}", member.name, kind,
                           path, member.lineno, member.end_lineno)
            for field in _fields(node):
                if _is_public(field.target.id):
                    yield (module, f"{name}.{field.target.id}", field.target.id,
                           FIELD, path, field.lineno, field.end_lineno)


def _is_all(node: ast.AST) -> bool:
    targets = (node.targets if isinstance(node, ast.Assign)
               else [getattr(node, "target", None)])
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _is_attribute_argument(call: ast.AST, node: ast.AST) -> bool:
    """Whether ``node`` is the name argument of ``getattr(obj, name)`` & co."""
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id in _ATTRIBUTE_FUNCTIONS
            and len(call.args) >= 2 and call.args[1] is node)


def _reads(node: ast.AST, strings: bool = False) -> Iterator[Read]:
    """(identifier, line, kind) of every name read under ``node``.

    A read is a variable, an attribute, a keyword argument or a string
    constant that is exactly an identifier: any such string when
    ``strings`` is set, else only the name argument of ``getattr``,
    ``setattr`` or ``hasattr``.  Imports, ``__all__``, the names that
    definitions and parameters bind, and the literal text of f-strings
    are skipped.
    """
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(child, (ast.Assign, ast.AnnAssign, ast.AugAssign)) and _is_all(child):
            continue
        line = getattr(child, "lineno", None)
        if isinstance(child, ast.Name):
            yield child.id, line, NAME
        elif isinstance(child, ast.Attribute):
            if isinstance(node, ast.Call) and node.func is child:
                kind = CALL
            else:
                kind = LOAD if isinstance(child.ctx, ast.Load) else STORE
            yield child.attr, child.end_lineno, kind
        elif isinstance(child, ast.keyword) and child.arg:
            yield child.arg, line, KEYWORD
        elif (isinstance(child, ast.Constant) and isinstance(child.value, str)
              and child.value.isidentifier() and not isinstance(node, ast.JoinedStr)
              and (strings or _is_attribute_argument(node, child))):
            yield child.value, line, STRING
        yield from _reads(child, strings)


def _reader_files() -> List[Path]:
    return (sorted(PACKAGE.rglob("*.py")) + sorted(PERF.glob("*.py"))
            + sorted((ROOT / "examples").glob("*.py")))


#: name -> [(path, line, kind) of each read]
Readers = Dict[str, List[Tuple[Path, int, str]]]


def _index(sources: Iterable[Tuple[Path, str]]
           ) -> Tuple[List[Subject], Readers, FrozenSet[str]]:
    """(subjects, reads, property and field names) of ``sources``.

    Subjects, properties and fields come only from the files under
    ``src/repro``; every file is a reader.  A string that is an
    identifier is a read anywhere in ``benchmarks/perf``.
    """
    subjects: List[Subject] = []
    readers: Readers = defaultdict(list)
    attributes: Set[str] = set()
    for path, source in sources:
        tree = ast.parse(source, filename=str(path))
        if path.is_relative_to(PACKAGE):
            subjects.extend(_subjects(path, tree))
            attributes |= _attribute_names(tree)
        for name, line, kind in _reads(tree, strings=path.is_relative_to(PERF)):
            readers[name].append((path, line, kind))
    return subjects, readers, frozenset(attributes)


def _scan() -> Tuple[List[Subject], Readers, FrozenSet[str]]:
    return _index((path, path.read_text(encoding="utf-8"))
                  for path in _reader_files())


def _is_entry_point(module: str) -> bool:
    return any(module == entry or module.startswith(entry + ".")
               for entry in ENTRY_POINTS)


def _drives(kind: str, subject: str, attribute: bool) -> bool:
    """Whether a read of ``kind`` drives a subject of kind ``subject``.

    ``attribute`` says whether a property or dataclass field has the
    name, so that a plain load of it need not reach a method.
    """
    if subject == MODULE or kind == STRING:
        return True
    if subject == METHOD:
        return kind == CALL or (kind == LOAD and not attribute)
    return kind == LOAD


def _undriven_in(subjects: List[Subject], readers: Readers,
                 attributes: FrozenSet[str]) -> FrozenSet[str]:
    """Keys of the subjects no read outside their own definition drives."""
    undriven: Set[str] = set()
    for module, qualname, name, kind, path, first, last in subjects:
        if _is_entry_point(module):
            continue
        if not any((where != path or not first <= line <= last)
                   and _drives(how, kind, name in attributes)
                   for where, line, how in readers.get(name, ())):
            undriven.add(f"{module}:{qualname}")
    return frozenset(undriven)


@functools.lru_cache(maxsize=None)
def _undriven() -> Tuple[FrozenSet[str], FrozenSet[str]]:
    """(keys of undriven subjects, keys of every subject)."""
    subjects, readers, attributes = _scan()
    return (_undriven_in(subjects, readers, attributes),
            frozenset(f"{s[0]}:{s[1]}" for s in subjects))


def test_every_public_name_has_a_reader_outside_the_tests():
    undriven, _ = _undriven()
    unread = sorted(undriven - set(ALLOWED))
    assert not unread, (
        "public names nothing outside the tests reads (delete them, or "
        "give them a reader):\n  " + "\n  ".join(unread))


def test_allow_list_is_not_stale():
    undriven, every = _undriven()
    missing = sorted(key for key in ALLOWED if key not in every)
    assert not missing, f"allow-listed names that no longer exist: {missing}"
    read = sorted(key for key in ALLOWED if key not in undriven)
    assert not read, f"allow-listed names that now have a reader: {read}"


def test_allow_list_is_short_and_explained():
    assert len(ALLOWED) <= 5
    assert all(reason.strip() for reason in ALLOWED.values())


def test_deleted_designs_stay_deleted():
    found: List[str] = []
    for path in sorted(SRC.rglob("*")):
        if not path.is_file() or "__pycache__" in path.parts:
            continue
        text = path.read_text(encoding="utf-8", errors="replace")
        for number, line in enumerate(text.splitlines(), 1):
            for what, pattern in GONE:
                if re.search(pattern, line):
                    found.append(f"{path.relative_to(ROOT)}:{number}: {what}: {line.strip()}")
    assert not found, "deleted designs are back under src/:\n  " + "\n  ".join(found)


# ----------------------------------------------------------------------
# The scan's own rules, on small synthetic sources.


def _undriven_of(**files: str) -> FrozenSet[str]:
    """Undriven subject keys of ``files``: ``repro/<name>.py`` -> source.

    A name ending in ``_example`` or ``_perf`` is a reader outside the
    package instead (``examples/<name>.py`` or ``benchmarks/perf/<name>.py``).
    """
    sources = []
    for name, source in files.items():
        if name.endswith("_example"):
            path = ROOT / "examples" / f"{name}.py"
        elif name.endswith("_perf"):
            path = PERF / f"{name}.py"
        else:
            path = PACKAGE / f"{name}.py"
        sources.append((path, textwrap.dedent(source)))
    return _undriven_in(*_index(sources))


def _reads_of(source: str) -> Set[str]:
    return {name for name, _, _ in _reads(ast.parse(textwrap.dedent(source)))}


def _subject_names(source: str) -> Set[str]:
    tree = ast.parse(textwrap.dedent(source))
    return {s[1] for s in _subjects(PACKAGE / "demo.py", tree)}


class TestScanRules:
    def test_module_name_of_a_package_init_is_the_package(self):
        assert _module_name(PACKAGE / "accel" / "__init__.py") == "repro.accel"
        assert _module_name(PACKAGE / "accel" / "dse.py") == "repro.accel.dse"

    def test_functions_classes_and_constants_are_subjects(self):
        assert _subject_names("""
            def f(): pass
            async def g(): pass
            class C: pass
            LIMIT = 3
            WIDTH: int = 4
        """) == {"f", "g", "C", "LIMIT", "WIDTH"}

    def test_dataclass_fields_are_subjects(self):
        assert _subject_names("""
            from dataclasses import dataclass
            from typing import ClassVar
            @dataclass(frozen=True)
            class Report:
                tokens: int
                joules: float = 0.0
                _cache: dict = None
                LIMIT: ClassVar[int] = 3
            class Plain:
                width: int = 4
        """) == {"Report", "Report.tokens", "Report.joules", "Plain"}

    def test_public_methods_and_properties_are_subjects(self):
        assert _subject_names("""
            class C:
                def run(self): pass
                @property
                def size(self): return 1
        """) == {"C", "C.run", "C.size"}

    def test_private_names_and_dunders_are_not_subjects(self):
        assert _subject_names("""
            def _helper(): pass
            _CACHE = {}
            class _Hidden:
                def run(self): pass
            class C:
                def __init__(self): pass
                def __len__(self): return 0
                def _step(self): pass
        """) == {"C"}

    def test_nested_definitions_are_not_subjects(self):
        assert _subject_names("""
            def outer():
                def inner(): pass
                return inner
            class C:
                LIMIT = 3
                class Inner: pass
        """) == {"outer", "C"}

    @pytest.mark.parametrize("line", [
        "import target",
        "from pkg import target",
        "from pkg import target as alias",
    ])
    def test_import_lines_are_not_reads(self, line):
        assert "target" not in _reads_of(line)

    def test_all_is_not_a_read(self):
        assert not {"target", "other"} & _reads_of("""
            __all__ = ["target"]
            __all__ += ["other"]
            __all__: list = ["target"]
        """)

    @pytest.mark.parametrize("call", ["getattr(obj, 'target')",
                                      "setattr(obj, 'target', 1)",
                                      "hasattr(obj, 'target')"])
    def test_an_attribute_name_string_is_a_read(self, call):
        assert "target" in _reads_of(call)

    @pytest.mark.parametrize("text", ["{'target': 1}", "dict(x='target')",
                                      "getattr(obj, 'other', 'target')"])
    def test_other_identifier_strings_are_not_reads(self, text):
        assert "target" not in _reads_of(f"value = {text}")

    def test_any_identifier_string_is_a_read_in_the_harness(self):
        assert not _undriven_of(demo="""
            class Engine:
                def step(self): return 0
        """, wrap_perf="Engine; OWNERS = [(Engine, 'step')]")

    @pytest.mark.parametrize("text", ["target value", "target.attr", "target()"])
    def test_other_strings_are_not_reads(self, text):
        assert "target" not in _reads_of(f"label = {text!r}")

    def test_fstring_text_is_not_a_read(self):
        names = _reads_of("label = f'target{value}'")
        assert "target" not in names
        assert "value" in names

    def test_names_attributes_and_keywords_are_reads(self):
        assert {"first", "second", "third"} <= _reads_of("""
            first
            obj.second
            call(third=1)
        """)

    def test_definitions_and_parameters_are_not_reads(self):
        assert not {"walk", "Cache", "depth", "rest", "options"} & _reads_of("""
            def walk(depth, *rest, **options): pass
            async def walk(): pass
            class Cache: pass
        """)

    def test_a_read_inside_its_own_definition_does_not_drive(self):
        assert _undriven_of(demo="""
            def walk(n):
                return walk(n - 1) if n else 0
        """) == {"repro.demo:walk"}

    def test_a_read_elsewhere_in_the_same_file_drives(self):
        assert _undriven_of(demo="""
            def walk(n):
                return n
            START = walk(0)
        """) == {"repro.demo:START"}

    def test_a_read_in_another_package_module_drives(self):
        assert _undriven_of(demo="def walk(n): return n",
                            user="def use(): return 1 + walk(2)") == {"repro.user:use"}

    def test_a_read_in_an_example_drives(self):
        assert not _undriven_of(demo="def walk(n): return n",
                                run_example="walk(1)")

    def test_a_method_is_driven_by_any_same_named_attribute(self):
        assert _undriven_of(demo="""
            class Cache:
                def fork(self): return Cache()
                def grow(self): return 0
        """, run_example="Cache().grow()") == {"repro.demo:Cache.fork"}

    def test_a_method_is_driven_by_a_load_no_attribute_shares(self):
        assert not _undriven_of(demo="""
            class Cache:
                def grow(self): return 0
        """, run_example="callback = Cache().grow")

    def test_a_method_read_only_as_a_same_named_property_is_undriven(self):
        assert _undriven_of(demo="""
            class Meter:
                def power(self): return 1
            class Report:
                @property
                def power(self): return 2
        """, run_example="Meter(); Report().power") == {"repro.demo:Meter.power"}

    def test_a_method_read_only_as_a_same_named_field_is_undriven(self):
        assert _undriven_of(demo="""
            from dataclasses import dataclass
            class Meter:
                def power(self): return 1
            @dataclass
            class Report:
                power: float
        """, run_example="Meter(); Report(1.0).power") == {"repro.demo:Meter.power"}

    def test_a_variable_named_like_a_method_does_not_drive_it(self):
        assert _undriven_of(demo="""
            class Meter:
                def power(self): return 1
        """, run_example="power = Meter(); print(power)") == {"repro.demo:Meter.power"}

    def test_a_keyword_named_like_a_method_does_not_drive_it(self):
        assert _undriven_of(demo="""
            class Meter:
                def power(self): return 1
        """, run_example="print(Meter(), power=1)") == {"repro.demo:Meter.power"}

    def test_a_field_set_only_by_constructor_keyword_is_undriven(self):
        assert _undriven_of(demo="""
            from dataclasses import dataclass
            @dataclass
            class Report:
                tokens: int
                joules: float = 0.0
        """, run_example="report = Report(tokens=1, joules=2.0); report.tokens") == {
            "repro.demo:Report.joules"}

    def test_a_field_written_or_called_is_undriven(self):
        assert _undriven_of(demo="""
            from dataclasses import dataclass
            @dataclass
            class Report:
                tokens: int
                joules: float
        """, run_example="r = Report(1, 2.0); r.tokens += 1; r.joules()") == {
            "repro.demo:Report.tokens", "repro.demo:Report.joules"}

    def test_a_dict_key_is_not_a_read_but_a_getattr_name_is(self):
        assert _undriven_of(demo="""
            class Meter:
                def power(self): return 1
                def energy(self): return 2
                def as_dict(self):
                    return {"power": 1, "energy": getattr(self, "energy")()}
        """, run_example="Meter().as_dict()") == {"repro.demo:Meter.power"}

    def test_same_named_definitions_do_not_drive_each_other(self):
        assert _undriven_of(demo="""
            class Cache:
                def view(self): return 0
            class PagedCache:
                def view(self): return 1
            def view(): return 2
        """, run_example="Cache(); PagedCache()") == {
            "repro.demo:Cache.view", "repro.demo:PagedCache.view",
            "repro.demo:view"}

    @pytest.mark.parametrize("module, entry", [
        ("repro.api", True),
        ("repro.api.completions", True),
        ("repro.cli", False),
        ("repro.bench", False),
        ("repro.bench.harness", False),
        ("repro.client", False),
        ("repro.core.api", False),
    ])
    def test_entry_point_modules(self, module, entry):
        assert _is_entry_point(module) is entry
