"""Command-line front end: configure a run, execute it, emit tables and meshes.

Usage:
    stfosls run CONFIG [--out DIR]
    stfosls verify [--seed N]

Configs are flat ``key = value`` text files; ``#`` starts a comment.  Exit
codes: 0 success, 1 failed verification, 2 invalid configuration or output
path, 3 solver failure, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .driver import (
    MarkingPropertyError,
    SolverFailure,
    StopCriteria,
    run,
    write_runlog_csv,
)
from .marking import MarkingConfig, MarkStrategy
from .mesh import uniform_initial_mesh, write_mesh
from .problem import BUILTIN_CASES, ConvectionForm, make_problem
from .spaces import DegenerateElementError, affine_maps
from .system import InvalidDataError, parabolic_system, poisson_sine_case

__all__ = ["RunConfig", "parse_config", "cmd_run", "cmd_verify", "main", "entry"]


class ConfigError(ValueError):
    pass


_DEFAULTS = {
    "system": "parabolic",
    "case": "heat-smooth",
    "form": "flux",
    "degree": "1",
    "mode": "adaptive",
    "marking": "doerfler",
    "theta": "0.5",
    "levels": "5",
    "max_iterations": "25",
    "max_dofs": "",
    "estimator_tolerance": "",
    "nt": "2",
    "nx": "2",
    "t_end": "1.0",
    "x_lo": "0.0",
    "x_hi": "1.0",
    "write_mesh": "false",
    "out": "",
}


@dataclass(frozen=True)
class RunConfig:
    """A validated config; ``stop`` and ``marking`` are what ``driver.run``
    gets (``marking`` is None in uniform mode)."""

    system: str
    case: str
    form: ConvectionForm
    degree: int
    mode: str
    marking: Optional[MarkingConfig]
    stop: StopCriteria
    nt: int
    nx: int
    t_end: float
    x_lo: float
    x_hi: float
    write_mesh: bool
    out: Optional[str]


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value configuration.

    In uniform mode ``levels`` bounds the run and ``max_iterations`` caps
    it further only when set; in adaptive mode ``max_iterations`` bounds the
    run and ``levels`` caps it only when set.  ``max_dofs`` and
    ``estimator_tolerance`` stop either mode, and uniform mode rejects
    ``marking`` and ``theta``.  ``system = poisson`` has the one case
    ``poisson-sine`` and no convection form: it rejects any other ``case``
    and any ``form``.  A key given twice keeps its last value.
    """
    values = dict(_DEFAULTS)
    given = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = value.strip()
        given.add(key)

    def _int(key, minimum=None):
        try:
            out = int(values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be an integer, got {values[key]!r}") from exc
        if minimum is not None and out < minimum:
            raise ConfigError(f"{key} must be >= {minimum}, got {out}")
        return out

    def _float(key):
        try:
            out = float(values[key])
        except ValueError as exc:
            raise ConfigError(f"{key} must be a number, got {values[key]!r}") from exc
        if not math.isfinite(out):
            raise ConfigError(f"{key} must be finite, got {values[key]!r}")
        return out

    system = values["system"]
    if system not in ("parabolic", "poisson"):
        raise ConfigError(f"system must be 'parabolic' or 'poisson', got {system!r}")
    case = values["case"]
    if system == "parabolic" and case not in BUILTIN_CASES:
        raise ConfigError(f"unknown parabolic case {case!r}; available: {', '.join(BUILTIN_CASES)}")
    if system == "poisson":
        if "case" in given and case != "poisson-sine":
            raise ConfigError(f"case {case!r} does not apply to system = poisson; available: poisson-sine")
        if "form" in given:
            raise ConfigError("form only applies to system = parabolic")
        case = "poisson-sine"

    try:
        form = ConvectionForm(values["form"])
    except ValueError as exc:
        raise ConfigError(f"form must be 'flux' or 'gradient', got {values['form']!r}") from exc

    degree = _int("degree")
    if degree not in (1, 2):
        raise ConfigError(f"degree must be 1 or 2, got {degree}")

    mode = values["mode"]
    if mode not in ("adaptive", "uniform"):
        raise ConfigError(f"mode must be 'adaptive' or 'uniform', got {mode!r}")

    levels = _int("levels", minimum=1)
    # Each mode's own bound on the refinement steps applies by default; the
    # other key caps them only when set.
    steps = {"levels": levels - 1}
    if values["max_iterations"]:
        steps["max_iterations"] = _int("max_iterations", minimum=0)
    own = "levels" if mode == "uniform" else "max_iterations"
    max_iterations = min((v for k, v in steps.items() if k == own or k in given), default=None)
    marking = None
    if mode == "uniform":
        adaptive_only = sorted(given & {"marking", "theta"})
        if adaptive_only:
            raise ConfigError(f"{' and '.join(adaptive_only)} only apply to mode = adaptive")
    else:
        try:
            strategy = MarkStrategy(values["marking"])
        except ValueError as exc:
            raise ConfigError(
                f"marking must be 'doerfler' or 'maximum', got {values['marking']!r}"
            ) from exc
        try:
            marking = MarkingConfig(strategy=strategy, theta=_float("theta"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    max_dofs = _int("max_dofs", minimum=1) if values["max_dofs"] else None
    tol = _float("estimator_tolerance") if values["estimator_tolerance"] else None
    try:
        stop = StopCriteria(
            max_iterations=max_iterations, max_dofs=max_dofs, estimator_tolerance=tol
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    t_end = _float("t_end")
    x_lo, x_hi = _float("x_lo"), _float("x_hi")
    if not t_end > 0:
        raise ConfigError(f"t_end must be positive, got {t_end}")
    if not x_lo < x_hi:
        raise ConfigError(f"need x_lo < x_hi, got ({x_lo}, {x_hi})")
    if not math.isfinite(x_hi - x_lo):
        raise ConfigError(f"x_hi - x_lo must be finite, got {x_hi - x_lo} from ({x_lo}, {x_hi})")

    flag = values["write_mesh"].lower()
    if flag not in ("true", "false", "0", "1", "yes", "no"):
        raise ConfigError(f"write_mesh must be boolean, got {values['write_mesh']!r}")

    return RunConfig(
        system=system,
        case=case,
        form=form,
        degree=degree,
        mode=mode,
        marking=marking,
        stop=stop,
        nt=_int("nt", minimum=1),
        nx=_int("nx", minimum=1),
        t_end=t_end,
        x_lo=x_lo,
        x_hi=x_hi,
        write_mesh=flag in ("true", "1", "yes"),
        out=values["out"] or None,
    )


def _degenerate(config: RunConfig, which: str, exc: DegenerateElementError) -> ConfigError:
    """The config error of a mesh whose elements are degenerate in floating
    point, naming the extent with the smaller initial cell side."""
    width = config.x_hi - config.x_lo
    key, value = ("t_end", config.t_end) if config.t_end / config.nt <= width / config.nx \
        else ("x_hi - x_lo", width)
    return ConfigError(f"{key} = {value!r} gives a degenerate {which} mesh: {exc}")


def _build_run(config: RunConfig):
    """Initial mesh, system and exact fields of a parsed config; a config
    whose initial mesh cannot be allocated, or whose initial elements are
    degenerate in floating point, is invalid."""
    try:
        mesh0 = uniform_initial_mesh(config.t_end, (config.x_lo, config.x_hi), config.nt, config.nx)
    except MemoryError as exc:
        raise ConfigError(f"nt = {config.nt}, nx = {config.nx} give an initial mesh "
                          f"too large to allocate: {exc}") from exc
    try:
        affine_maps(mesh0)
    except DegenerateElementError as exc:  # e.g. a positive but denormal t_end
        raise _degenerate(config, "initial", exc) from exc
    if config.system == "poisson":
        system, exact = poisson_sine_case()
    else:
        problem, exact = make_problem(config.case, config.form)
        system = parabolic_system(problem)
    return mesh0, system, exact


def cmd_run(config_path, out_dir=None) -> int:
    """Execute one configured run; writes runlog.csv, summary.txt, optional mesh dump."""
    try:
        text = Path(config_path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
        mesh0, system, exact = _build_run(config)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2

    out = Path(out_dir) if out_dir is not None else Path(config.out or ".")
    for path in (out, *out.parents):  # before level 0: the nearest existing one must be a directory
        if path.exists() and not path.is_dir():
            print(f"error: cannot write output to {out}: {path} is not a directory", file=sys.stderr)
            return 2

    try:
        log = run(system, mesh0, config.degree, config.stop, marking=config.marking, exact=exact)
    except DegenerateElementError as exc:  # refinement made an element degenerate
        print(f"error: invalid config: {_degenerate(config, 'refined', exc)}", file=sys.stderr)
        return 2
    except InvalidDataError as exc:  # e.g. a diffusion that is not positive on the config's domain
        print(f"error: invalid config: case = {config.case}: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return 3
    except MarkingPropertyError as exc:
        print(f"error: internal invariant violation: {exc}", file=sys.stderr)
        return 4

    summary = [
        f"system = {config.system}",
        f"case = {config.case}",
        f"mode = {config.mode}",
        f"degree = {config.degree}",
        f"levels = {len(log.records)}",
        f"reason = {log.reason}",
        f"initial estimator = {log.records[0].estimator!r}",
        f"final estimator = {log.records[-1].estimator!r}",
        f"final dofs = {log.records[-1].dofs}",
    ]
    try:
        out.mkdir(parents=True, exist_ok=True)  # only now: a failed run leaves no directory
        write_runlog_csv(log, out / "runlog.csv")
        if config.write_mesh and log.final_mesh is not None:
            write_mesh(log.final_mesh, out / "mesh_final.txt")
        (out / "summary.txt").write_text("\n".join(summary) + "\n")
    except OSError as exc:
        print(f"error: cannot write output to {out}: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_verify(seed: int = 0) -> int:
    """Run the built-in oracle suite, printing one pass/fail line per check."""
    from .verify import run_checks

    results = run_checks(seed=seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
    if all(r.passed for r in results):
        print(f"all {len(results)} checks passed")
        return 0
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stfosls", description="Adaptive space-time least-squares finite element runs"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute a configured run")
    run_parser.add_argument("config", help="path to a key = value config file")
    run_parser.add_argument("--out", default=None, help="output directory (overrides config)")
    verify_parser = sub.add_parser("verify", help="run the built-in oracle suite")
    verify_parser.add_argument(
        "--seed", type=int, default=0, help="seed for randomized property trials"
    )

    # Given before its subcommand, a subcommand's flag is not named by
    # argparse, which reports the flag's value as an invalid command.  The
    # prefixes that argparse accepts after the subcommand count as the flag.
    owners = {"--out": "run", "--seed": "verify"}
    argv = sys.argv[1:] if argv is None else list(argv)
    for arg in argv:
        if arg in sub.choices:
            break
        given = arg.split("=", 1)[0]
        flags = [flag for flag in owners if len(given) > 2 and flag.startswith(given)]
        if len(flags) == 1:
            flag = flags[0]
            parser.error(f"{flag} is an option of '{owners[flag]}' and goes after it: "
                         f"stfosls {owners[flag]} {flag} ...")
    args = parser.parse_args(argv)
    if args.command == "verify":
        if args.seed < 0:  # numpy's generators take no negative seed
            verify_parser.error(f"--seed must be a non-negative integer, got {args.seed}")
        return cmd_verify(seed=args.seed)
    return cmd_run(args.config, out_dir=args.out)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
