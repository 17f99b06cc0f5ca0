"""Every exported name resolves, the package exports what it re-exports, and
every public function is reached by a subcommand or stated as not yet reached."""
import inspect
import sys
import typing

import ptdarboux
from oracles import clear_caches, package_modules


def test_every_module_all_entry_resolves():
    # a stale entry breaks `from ptdarboux.<module> import *` and any tool
    # that walks __all__ with getattr
    checked = 0
    for module in [ptdarboux, *package_modules()]:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > len(ptdarboux.__all__)


def test_package_all_is_exactly_its_re_exports():
    # the package keeps no list of its own: it re-exports every module's
    # __all__ but the CLI's, and a name two modules list would shadow one
    modules = {module.__name__: module for module in package_modules()}
    del modules["ptdarboux.cli"]
    exported = {"__version__"} | {name for module in modules.values() for name in module.__all__}
    assert set(ptdarboux.__all__) == exported
    assert len(ptdarboux.__all__) == len(set(ptdarboux.__all__))
    namespace = {}
    exec("from ptdarboux import *", namespace)
    assert set(ptdarboux.__all__) <= set(namespace)
    for module in modules.values():
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), f"{module.__name__}.{name}"


def test_every_public_function_resolves_its_annotations():
    # typing.get_type_hints evaluates each annotation in its module; the
    # modules import fractions only inside the exact API's bodies, so an
    # annotation may not name Fraction (their docstrings state the type)
    functions = [getattr(ptdarboux, name) for name in ptdarboux.__all__
                 if inspect.isfunction(getattr(ptdarboux, name))]
    assert len(functions) > 20
    for function in functions:
        typing.get_type_hints(function)


# Every public function of ptdarboux.__all__, in exactly one group: reached by
# a subcommand, a one-point wrapper over a row engine that README names, or
# waiting for the report row (ROADMAP item 3) or the exact evaluator (item 10)
# that will reach it.  Classes, error types and constants are exempt by kind.
REACHED = {
    "box_energy", "check_correspondence", "check_expectation_x", "check_fd_spectrum",
    "check_first_moment", "check_hypergeom_norm", "check_identity", "check_orthonormality",
    "check_residual", "check_trig_norm", "fd_spectrum", "gauss_legendre",
    "midpoint_vanishing", "normalization_A", "resolve_tolerances", "run_full_suite",
}
ONE_POINT_WRAPPERS = {
    "chi_eval", "chi_derivatives", "identity_sides", "partner_potential", "f21_eval_real",
    "coefficient_C",
}
WAITING_FOR_ITEM_3 = {
    "intertwine", "transform_normalization", "pt_potential", "pt_energy", "f21_derivative",
}
WAITING_FOR_ITEM_10 = {"f21_eval_exact"}

SUBCOMMANDS = [
    ["verify", "--n-max", "2"],
    ["tabulate"],
    ["identity", "--which", "base"],
    ["identity", "--which", "even"],
    ["identity", "--which", "odd"],
    ["spectrum"],
]


def test_every_public_function_is_in_exactly_one_reach_group(capsys):
    from ptdarboux.cli import main

    functions = {name: getattr(ptdarboux, name) for name in ptdarboux.__all__
                 if inspect.isfunction(getattr(ptdarboux, name))}
    groups = [REACHED, ONE_POINT_WRAPPERS, WAITING_FOR_ITEM_3, WAITING_FOR_ITEM_10]
    assert sorted(name for group in groups for name in group) == sorted(functions)

    clear_caches()  # a memo filled by an earlier call would hide a call
    codes = {function.__code__: name for name, function in functions.items()}
    reached = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            reached.add(codes[frame.f_code])

    sys.setprofile(profile)
    try:
        for argv in SUBCOMMANDS:
            assert main(argv) == 0, argv
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert reached == REACHED
