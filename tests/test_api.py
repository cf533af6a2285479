import ast
from pathlib import Path

import divisorlab


def test_public_names_resolve_once():
    names = divisorlab.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(divisorlab, name), name


# the names each module imports only so that perfbench/tracing.py can wrap
# them there; they go when the tracer wraps them in sieves alone
TRACER_ONLY = {"cli": {"sieve_divisors", "sieve_r"}, "constants": {"sieve_divisors"},
               "moments": {"sieve_divisors", "sieve_r"}, "voronoi": {"sieve_divisors", "sieve_r"}}


def test_every_imported_name_is_used():
    # each src module parsed with ast: every name an import binds is read
    # elsewhere in the module (or, in __init__, exported by __all__)
    unused = {}
    for path in sorted(Path(divisorlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {(alias.asname or alias.name).split(".")[0]
                 for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.stem == "__init__":
            read |= set(divisorlab.__all__)
        if bound - read:
            unused[path.stem] = bound - read
    assert unused == TRACER_ONLY
