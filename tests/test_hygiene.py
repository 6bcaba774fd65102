"""Static checks over the source tree: no import left unread, no dot
product in the package outside ``geometry.dot``, no broad ``except`` in the
package, no socket read of the package sized by a literal, no numpy
``Generator`` method but ``random`` in the package, no numpy or yaml on the
twin side, no enum member read off its class in a function of the merge
tick's modules, and no function, attribute, dataclass field or module-level
constant of the package that only the tests read.

The last four match by name, so a name the package reads elsewhere keeps
a dead one out of their sight. Each of these was deleted by hand instead:
``Throttle.flush``, hidden by a file's ``flush``; ``TwinEngine.telemetry_applied``,
hidden by ``LiveCounters``' field of that name; and ``LogWriter.count``,
hidden by the string ``"count"`` in ``scenario``. The URDF tag string
``"joint"`` in ``robot`` hides ``LimitViolation.joint`` the same way; that
field is kept for the merge tick's report of clamped joints."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from twinsync import grasp, mocap, twin

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "twinsync"
BENCHMARK = ROOT / "perfbench"


def modules(*dirs):
    for d in dirs:
        for path in sorted(d.rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unused_imports(tree):
    """(line, name) of each name an import binds and the module never reads."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


# numpy's ways to a BLAS product; any object's ``.dot`` counts too
PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def blas_products(tree, allowed_in=()):
    """Lines that compute a product numpy may hand to the BLAS: ``.dot``
    and the other names in ``PRODUCTS`` as attributes or numpy imports,
    the ``@`` operator, and anything of ``numpy.linalg``; outside the
    module-level functions named in ``allowed_in``."""
    exempt = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in allowed_in:
            exempt.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, ast.Attribute) and node.attr in PRODUCTS | {"linalg"}:
            lines.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy") \
                and (node.module.startswith("numpy.linalg")
                     or any(a.name in PRODUCTS | {"linalg"} for a in node.names)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(a.name.startswith("numpy.linalg")
                                                  for a in node.names):
            lines.append(node.lineno)
    return lines


def broad_excepts(tree):
    """Lines of each bare ``except:`` and each handler that names
    ``Exception`` or ``BaseException``, alone or in a tuple."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        if node.type is None or any(dotted(t).split(".")[-1] in ("Exception", "BaseException")
                                    for t in caught):
            lines.append(node.lineno)
    return lines


# numpy's Generator methods but ``random``, whose doubles NEP 19 keeps stable
# across releases; ``spawn``, which SeedSequence shares, draws nothing
DRAWS = {m for m in dir(np.random.Generator)
         if not m.startswith("_")} - {"random", "spawn", "bit_generator"}


def generator_draws(tree):
    """Lines that call a method named in ``DRAWS``, on any object."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in DRAWS]


# the enums whose members the merge tick's modules read as module globals
MERGE_ENUMS = {"PoseStatus": mocap.PoseStatus, "GraspPhase": grasp.GraspPhase,
               "AssetSource": grasp.AssetSource}


def enum_member_reads(tree, enums=tuple(MERGE_ENUMS)):
    """Lines in a function body that read an attribute off a class named in
    ``enums``, as ``PoseStatus.STABLE`` does."""
    lines = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in (n for stmt in fn.body for n in ast.walk(stmt)):
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in enums:
                    lines.add(node.lineno)
    return sorted(lines)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(name, node, class node or None) of each module-level function and
    class and of each method of a module-level class."""
    for node in tree.body:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node.name, node, None
        if isinstance(node, ast.ClassDef):
            yield from ((m.name, m, node) for m in node.body if isinstance(m, FUNCTIONS))


def referenced_name(node):
    """The name ``node`` may refer to a definition by: a name or attribute
    loaded, a name an import binds, or a string constant, as ``getattr``
    takes one."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name.split(".")[-1]
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def references(tree, defs):
    """(name, ids of the nodes in ``defs`` whose body holds it) of each
    reference in ``tree``. Decorators, base classes and default values
    run where their definition does, so they count outside its body."""
    found = []

    def visit(node, within):
        if id(node) in defs:
            outside = node.decorator_list + (
                node.bases + node.keywords if isinstance(node, ast.ClassDef)
                else node.args.defaults + [d for d in node.args.kw_defaults if d])
            for n in outside:
                visit(n, within)
            skip = set(map(id, outside))
            for child in ast.iter_child_nodes(node):
                if id(child) not in skip:
                    visit(child, within + (id(node),))
            return
        name = referenced_name(node)
        if name is not None:
            found.append((name, within))
        for child in ast.iter_child_nodes(node):
            visit(child, within)

    visit(tree, ())
    return found


def dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreferenced(package, others=()):
    """``module.name`` or ``module.Class.name`` of each definition of the
    ``package`` modules that no code of them or of ``others`` (a benchmark
    or a script: every line counts) refers to outside its own body; each
    a list of (path, tree).

    A reference counts only from a body that is itself referenced, so the
    search runs to a fixpoint, and a helper that only an unreferenced
    function calls is flagged too. A dunder method is referenced when its
    class is. The match is by name, so a method that shares its name with
    one the package calls on another object is not seen: ``recordlog``'s
    ``self._f.flush()``, a file's, kept ``network.Throttle.flush``, which
    only the tests called, out of this check's sight."""
    defs = {id(node): (path.stem, name, owner)
            for path, tree in package for name, node, owner in definitions(tree)}
    by_name = {}
    for _, tree in [*package, *others]:
        for name, within in references(tree, defs):
            by_name.setdefault(name, []).append(within)
    live, grown = set(), True
    while grown:
        grown = False
        for key, (_, name, owner) in defs.items():
            if key in live:
                continue
            if dunder(name):
                found = owner is None or id(owner) in live
            else:
                found = any(key not in within and live.issuperset(within)
                            for within in by_name.get(name, ()))
            if found:
                live.add(key)
                grown = True
    return sorted(f"{module}.{owner.name + '.' if owner else ''}{name}"
                  for key, (module, name, owner) in defs.items()
                  if key not in live and not dunder(name))


def stored_through(tree):
    """The attribute nodes that a subscript store writes into, as
    ``self.x[k] = v`` writes into ``self.x``: a store, not a read."""
    return [n.value for n in ast.walk(tree) if isinstance(n, ast.Subscript)
            and isinstance(n.ctx, ast.Store) and isinstance(n.value, ast.Attribute)]


def attributes_read(readers):
    """Each attribute name the ``readers`` modules load, other than by a
    subscript store, and each string constant they hold."""
    stores = {id(n) for _, tree in readers for n in stored_through(tree)}
    return {referenced_name(n) for _, tree in readers for n in ast.walk(tree)
            if not isinstance(n, (ast.Name, ast.alias)) and id(n) not in stores} - {None}


def write_only(package, readers):
    """``module.attribute`` of each ``self.attribute`` the ``package``
    modules assign or store into and no module of ``readers`` loads, by
    name or as a string constant; each a list of (path, tree)."""
    read = attributes_read(readers)
    written = [(path, n) for path, tree in package for n in ast.walk(tree)
               if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)]
    written += [(path, n) for path, tree in package for n in stored_through(tree)]
    return sorted({f"{path.stem}.{n.attr}" for path, n in written
                   if isinstance(n.value, ast.Name) and n.value.id == "self"
                   and n.attr not in read})


def unread_fields(package, readers):
    """``module.Class.field`` of each field of a module-level ``@dataclass``
    of the ``package`` modules that no module of ``readers`` loads as an
    attribute or names in a string constant; each a list of (path, tree).
    ``NamedTuple`` fields are not checked: the package unpacks some, such
    as ``ChainJoint`` and ``Pose``, by position."""
    read = attributes_read(readers)
    return sorted(f"{path.stem}.{node.name}.{stmt.target.id}"
                  for path, tree in package for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and any(dotted(getattr(d, "func", d)).split(".")[-1] == "dataclass"
                          for d in node.decorator_list)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def unread_constants(package, others=()):
    """``module.NAME`` of each name a statement at the top of a ``package``
    module assigns that no code of them or of ``others`` refers to outside
    that statement, by name or as a string constant; each a list of
    (path, tree). Dunders are exempt."""
    assigned = [(path.stem, t.id, stmt) for path, tree in package for stmt in tree.body
                if isinstance(stmt, (ast.Assign, ast.AnnAssign))
                for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
                for t in ast.walk(target) if isinstance(t, ast.Name)]
    within = {}  # each name referred to, and the statements that do
    for _, tree in [*package, *others]:
        for stmt in tree.body:
            for node in ast.walk(stmt):
                within.setdefault(referenced_name(node), set()).add(id(stmt))
    return sorted(f"{module}.{name}" for module, name, stmt in assigned
                  if not dunder(name) and not within.get(name, set()) - {id(stmt)})


# the socket reads whose first argument is the most bytes they take
READS = {"recv", "recvfrom"}


def literal_reads(tree):
    """Lines of each ``recv`` or ``recvfrom`` call whose size, the first
    argument or ``bufsize``, is written with literals only, as
    ``sock.recv(65536)`` or ``recv(1 << 16)``: no name of a length."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in READS:
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "bufsize"), None)
            if size is not None and not any(isinstance(n, (ast.Name, ast.Attribute))
                                            for n in ast.walk(size)):
                lines.append(node.lineno)
    return lines


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}:{line} {name}"
             for path, tree in modules(ROOT / "src", ROOT / "tests")
             for line, name in unused_imports(tree)]
    assert found == []


def test_dot_only_through_geometry():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in blas_products(
                 tree, ("dot",) if path == PACKAGE / "geometry.py" else ())]
    assert found == []


def test_no_broad_except():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in broad_excepts(tree)]
    assert found == []


def test_only_random_of_numpys_generator():
    # every other draw is a transform of its doubles in ``network``
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in generator_draws(tree)]
    assert found == []


def test_socket_reads_are_sized_by_the_wire():
    # a read allocates its whole size first, so each is one more than the
    # longest message of its channel, as ``wire`` states it
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             for line in literal_reads(tree)]
    assert found == []


def test_merge_tick_reads_enum_members_as_globals():
    found = [f"{path.relative_to(ROOT)}:{line}"
             for path, tree in modules(PACKAGE)
             if path.stem in ("mocap", "grasp", "twin")
             for line in enum_member_reads(tree)]
    assert found == []


def test_no_function_only_the_tests_call():
    assert unreferenced(list(modules(PACKAGE)), list(modules(BENCHMARK))) == []


def test_no_attribute_left_unread():
    assert write_only(list(modules(PACKAGE)), list(modules(PACKAGE, BENCHMARK))) == []


def test_no_field_left_unread():
    assert unread_fields(list(modules(PACKAGE)), list(modules(PACKAGE, BENCHMARK))) == []


def test_no_constant_only_the_tests_read():
    assert unread_constants(list(modules(PACKAGE)), list(modules(BENCHMARK))) == []


def test_enum_aliases_are_their_members():
    # each alias names its own member, so a reordered enum cannot swap two
    own = {mocap: [mocap.PoseStatus], grasp: [grasp.GraspPhase, grasp.AssetSource]}
    for module, enums in own.items():
        for member in (m for e in enums for m in e):
            assert getattr(module, member.name) is member
    members = {m.name: m for e in MERGE_ENUMS.values() for m in e}
    held = {name: value for name, value in vars(twin).items() if name in members}
    assert held and all(value is members[name] for name, value in held.items())
    assert grasp.TRACKED == (mocap.STABLE, mocap.RELOCATED)


# the twin side and the CLI that runs replay and live on it
TWIN_SIDE = ("twinsync.twin", "twinsync.live", "twinsync.scenario",
             "twinsync.recordlog", "twinsync.cli")


def loaded_by(modules) -> set:
    """The numpy, yaml and twinsync modules a fresh interpreter holds after
    importing ``modules``."""
    script = (f"import sys\nimport {', '.join(modules)}\n"
              "print(*sorted(m for m in sys.modules if m.split('.')[0] in "
              "('numpy', 'yaml', 'twinsync')))")
    out = subprocess.run([sys.executable, "-c", script], check=True, text=True,
                         capture_output=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}).stdout
    return set(out.split())


def test_twin_side_imports_neither_numpy_nor_yaml():
    loaded = loaded_by(TWIN_SIDE)
    assert {"numpy", "yaml"} & loaded == set()
    # nor any of the emulator's modules
    emulator = {"twinsync.harness", "twinsync.network", "twinsync.teleop",
                "twinsync.latency"}
    assert emulator & loaded == set()


def test_the_links_load_no_twin_side_module():
    # the emulated links only carry what they are sent: the merge schedule
    # that downsamples telemetry is simulate's own
    loaded = loaded_by(["twinsync.network"])
    assert {"twinsync.twin", "twinsync.robot", "twinsync.recordlog"} & loaded == set()


def test_latency_imports_no_numpy():
    # the emulator's latency summaries are plain Python, numpy's bits kept
    assert "numpy" not in loaded_by(["twinsync.latency"])


def test_checks_see_what_they_look_for():
    tree = ast.parse("import os\nimport numpy as np\nfrom numpy.linalg import norm\n"
                     "def f(v):\n    return np.linalg.norm(v)\n")
    assert unused_imports(tree) == [(1, "os"), (3, "norm")]
    assert blas_products(tree) == [3, 5]
    products = ast.parse("import numpy.linalg\nfrom numpy import dot\n"
                         "from numpy.linalg import solve\n"
                         "a = x.dot(y)\nb = np.dot(x, y)\nc = x @ y\nc @= y\n"
                         "d = np.linalg.solve(x, y)\ne = np.einsum('i,i', x, y)\n"
                         "f = sum(map(mul, x, y))\n")
    assert sorted(set(blas_products(products))) == [1, 2, 3, 4, 5, 6, 7, 8, 9]
    geometry = ast.parse("import numpy as np\ndef dot(a, b):\n"
                         "    return np.asarray(a).dot(b)\n"
                         "def norm(v):\n    return np.linalg.norm(v)\n")
    assert blas_products(geometry) == [3, 5]
    assert blas_products(geometry, ("dot",)) == [5]
    handlers = ast.parse("try:\n    pass\nexcept ValueError:\n    pass\n"
                         "except (KeyError, Exception):\n    pass\n"
                         "except builtins.BaseException:\n    pass\n"
                         "except:\n    pass\n")
    assert broad_excepts(handlers) == [5, 7, 9]
    draws = ast.parse("u = rng.random(64)\nz = rng.normal(0.0, 1.0, 3)\n"
                      "c = ss.spawn(2)\nk = np.random.default_rng(s).integers(5)\n"
                      "x = self._rng.choice(v)\ny = rng.standard_normal()\n")
    assert generator_draws(draws) == [2, 4, 5, 6]
    # as live.py read every datagram and the command stream before
    reads = ast.parse("data = sock.recv(65536)\nwhile conn.recv(1 << 16):\n    pass\n"
                      "d, a = sock.recvfrom(bufsize=4096)\nd = sock.recv(MOCAP_SIZE + 1)\n"
                      "d = sock.recv(wire.COMMAND_SIZE)\nd = f.read(65536)\n")
    assert literal_reads(reads) == [1, 2, 4]
    # as the merge tick's modules read their enums before they held aliases
    reads = ast.parse("STABLE = PoseStatus.STABLE\n"
                      "class Tracker:\n    phase = GraspPhase.IDLE\n"
                      "    def step(self):\n        if self.phase == GraspPhase.IDLE:\n"
                      "            return PoseStatus.STABLE.value\n"
                      "        ok = s in (PoseStatus.STABLE,\n                   PoseStatus.RELOCATED)\n"
                      "        def inner():\n            return AssetSource.MOCAP\n"
                      "        return STABLE, Other.X, mocap.PoseStatus\n")
    assert enum_member_reads(reads) == [5, 6, 7, 8, 10]
    package = [(Path("m.py"), ast.parse(textwrap.dedent("""\
        def used(x=default()):
            return helper()
        def helper():
            return 1
        def default():
            return None
        def only_tests():
            return inner()
        def inner():
            return 2
        def recursive():
            return recursive()
        def by_string():
            pass
        def benchmarked():
            pass
        @decorator
        def decorated():
            pass
        def decorator(f):
            return f
        class C(Base):
            def __init__(self):
                self.read, self.unread, self.named = 1, 2, 3
                self.counted = 0
            def method(self):
                self.counted += 1
                return self.read
            def returns_its_class(self):
                return C
            def flush(self):
                pass
        class Base:
            pass
        class Unused:
            def __init__(self):
                inner()
        used(), decorated(), C().method()
        getattr(m, "by_string"), getattr(c, "named")
        log.flush()
        """)))]
    bench = [(Path("bench.py"), ast.parse("from m import benchmarked\n"))]
    # a file's flush keeps C.flush alive: the match is by name
    assert unreferenced(package, bench) == [
        "m.C.returns_its_class", "m.Unused", "m.inner", "m.only_tests", "m.recursive"]
    assert "m.benchmarked" in unreferenced(package)
    assert write_only(package, package) == ["m.counted", "m.unread"]
    # as LiveBridge kept the latest mocap packet per object, which only a test read
    bridge = [(Path("live.py"), ast.parse(textwrap.dedent("""\
        class Bridge:
            def __init__(self):
                self.latest, self.table, self.nested = {}, {}, {"a": {}}
            def merge(self, msg):
                self.latest[msg.key] = msg
                self.table[msg.key] = msg
                self.nested["a"][msg.key] = msg
                return self.table[msg.key]
        """)))]
    test = [(Path("test_live.py"), ast.parse("assert bridge.latest[1].seq == 19\n"))]
    assert write_only(bridge, bridge) == ["live.latest"]
    assert write_only(bridge, bridge + test) == []
    # as read_log returned a header that only the tests read
    log = [(Path("log.py"), ast.parse(textwrap.dedent("""\
        @dataclass(frozen=True)
        class Header:
            version: int
            seed: int
        @dataclasses.dataclass
        class Scan:
            header: Header
            records: tuple
            truncated: bool = False
        class Record(NamedTuple):
            time_ns: int
        def read(f, config):
            return Scan(Header(1, config.seed), f.records, getattr(f, "truncated"))
        """)))]
    test = [(Path("test_log.py"), ast.parse("assert read(f, c).header.version == 1\n"))]
    assert unread_fields(log, log) == ["log.Header.version", "log.Scan.header"]
    assert unread_fields(log, log + test) == []
    # as latency held DELTA_KINDS, which only the tests read
    constants = [(Path("c.py"), ast.parse(textwrap.dedent("""\
        KINDS = ("a", "b")
        USED: int = 1
        STABLE = Status.STABLE
        LOW, HIGH = 0, 9
        BENCHMARKED = 2
        __all__ = ["f"]
        def f():
            return USED + LOW
        """)))]
    test = [(Path("test_c.py"), ast.parse("from c import KINDS\nassert KINDS\n"))]
    bench = [(Path("bench.py"), ast.parse("import c\nprint(c.BENCHMARKED)\n"))]
    # its own statement's ``Status.STABLE`` does not keep STABLE alive
    assert unread_constants(constants, bench) == ["c.HIGH", "c.KINDS", "c.STABLE"]
    assert unread_constants(constants, bench + test) == ["c.HIGH", "c.STABLE"]
