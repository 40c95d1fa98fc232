"""Command-line harness: generate instances, run scenarios, compare ledgers.

    hubroster generate --config cfg.json --seed 42 --out runs/base
    hubroster run      --out runs/base --scenario all --noise paper
    hubroster compare  runs/base/ledger_s1.json runs/base/ledger_s3.json

All emitted files carry the seed and config hash in a header so a rerun of
the same manifest is byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from ._inputs import check_number, write_json
from .config import config_hash, file_header, load_config, params_from_config
from .demand import (
    GeneratorConfig,
    generate_arrivals,
    read_arrivals_csv,
    write_arrivals_csv,
    write_forecast_csv,
)
from .engine import (
    RollingPlan,
    ScenarioConfig,
    run_scenario,
    write_flows_csv,
    write_roster_csv,
    write_series_csv,
)
from .ledger import CATEGORIES, read_ledger_json, write_ledger_csv, write_ledger_json
from .network import load_network, random_network, save_network


def _config(path, seed) -> dict:
    """``load_config(path)`` with its seed replaced by ``seed`` (the
    ``--seed`` flag) when that is given; the flag is held to the rule of
    the config's seed, so ``run`` reads what ``generate`` froze."""
    cfg = load_config(path)
    if seed is not None:
        check_number("--seed", seed, integer=True)
        cfg["seed"] = seed
    return cfg


def _build_instance(cfg: dict):
    params = params_from_config(cfg)
    net_cfg = cfg["network"]
    net = random_network(
        n_hubs=net_cfg["hubs"],
        n_gateways=net_cfg["gateways"],
        area_m=net_cfg["area_km"] * 1000.0,
        d_max_m=net_cfg["move_radius_m"],
        speed_m_per_h=net_cfg["walk_speed_m_per_h"],
        seed=params.seed,
    )
    profile = GeneratorConfig(horizon_h=params.horizon_h, **cfg["arrivals"])
    arrivals = generate_arrivals(net, profile, params.seed)
    return net, arrivals


def _cannot_write(exc: OSError, out: Path) -> int:
    """Report an output file (or ``out`` itself) that cannot be written,
    in one line, and return the exit code 1."""
    print(f"error: {exc.filename or out}: cannot write ({exc.strerror or exc})", file=sys.stderr)
    return 1


@contextlib.contextmanager
def _outputs(out: Path):
    """Stage a command's output files in ``out`` (made if missing): yield
    ``path(name)``, where to write the file ``name`` now, inside a fresh
    temporary directory in ``out``. When the block ends without an error,
    every file is moved into place with ``os.replace``, once no target is
    found to be a directory, which would stop the moves part way. The
    temporary directory is removed in any case, so a command that fails
    leaves ``out`` as it found it; an ``OSError`` raised on a staged file
    names the file's path in ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".hubroster-", dir=out))
    names = []

    def path(name: str) -> Path:
        names.append(name)
        return tmp / name

    try:
        yield path
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name in names:
            os.replace(tmp / name, out / name)
    except OSError as exc:
        if exc.filename and Path(exc.filename).parent == tmp:
            exc.filename = str(out / Path(exc.filename).name)
        raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def cmd_generate(args) -> int:
    try:
        cfg = _config(args.config, args.seed)
        net, arrivals = _build_instance(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = Path(args.out)
    header = file_header(cfg["seed"], config_hash(cfg))
    try:
        with _outputs(out) as path:
            save_network(net, path("network.json"))
            write_arrivals_csv(path("arrivals.csv"), arrivals, header)
            write_json(path("config.json"), cfg)
    except OSError as exc:
        return _cannot_write(exc, out)
    total = sum(map(sum, arrivals.values()))
    print(f"generated {len(net)} hubs, {total} arrivals -> {out}")
    return 0


def cmd_run(args) -> int:
    out = Path(args.out)
    net_path = out / "network.json"
    arr_path = out / "arrivals.csv"
    if not net_path.exists() or not arr_path.exists():
        print(f"error: no generated instance in {out} (run `generate` first)", file=sys.stderr)
        return 1
    cfg_path = out / "config.json"
    scenarios = [1, 2, 3] if args.scenario == "all" else [int(args.scenario)]

    try:
        cfg = _config(cfg_path if cfg_path.exists() else None, args.seed)
        seed = cfg["seed"]
        net = load_network(net_path)
        arrivals = read_arrivals_csv(arr_path)
        params = params_from_config(cfg)
        configs = [ScenarioConfig(num, net, arrivals, params, args.noise) for num in scenarios]
        # scenarios 1 and 2 fix the same runs at every step: plan them once
        # (a plan validates its config), before any file is written
        plans: dict[int, RollingPlan] = {}
        for sc in configs:
            if sc.params.replan_min not in plans:
                plans[sc.params.replan_min] = RollingPlan(sc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digest = config_hash(cfg)
    header = file_header(seed, digest)
    columns, lines = [], []
    # the plan's forecasts are dumped once, to the first scenario's file
    dumps: dict[int, Path] = {}
    try:
        with _outputs(out) as path:
            # each scenario's files are written as soon as it is run, so no
            # report outlives its scenario
            for num, sc in zip(scenarios, configs):
                replan_min = sc.params.replan_min
                plan = plans[replan_min]
                report = run_scenario(sc, plan)
                columns.append((f"scenario {num}", report.ledger.to_dict()))
                meta = {"seed": seed, "config": digest, "scenario": num, "noise": args.noise}
                write_ledger_json(path(f"ledger_s{num}.json"), report.ledger, meta)
                write_ledger_csv(path(f"ledger_s{num}.csv"), report.ledger, header)
                write_roster_csv(path(f"roster_s{num}.csv"), report, header)
                write_series_csv(path(f"series_s{num}.csv"), report, header)
                write_flows_csv(path(f"flows_s{num}.csv"), report, header)
                if args.debug_forecasts:
                    dump = path(f"forecasts_s{num}.csv")
                    if replan_min in dumps:
                        shutil.copyfile(dumps[replan_min], dump)
                    else:
                        write_forecast_csv(dump, plan.hub_ids, plan.forecasts(), header)
                        dumps[replan_min] = dump
                moving_share = 100.0 * report.merged_shift_count / max(1, len(report.roster))
                lines.append(
                    f"scenario {num}: {len(report.roster)} shifts, {report.hires} workers, "
                    f"{report.merged_shift_count} cross-hub ({moving_share:.1f}%), "
                    f"{report.late_parcels} late parcels, total {report.ledger.total:.0f} Yuan "
                    f"[{report.runtime_s:.2f}s]"
                )
    except OSError as exc:
        return _cannot_write(exc, out)

    if len(columns) > 1:
        lines += ["", _comparison_table(columns)]
    # printed once every file is written, so a reader that stops early
    # (``| head``) cannot cut the run short
    print("\n".join(lines))
    return 0


def _comparison_table(columns: list[tuple[str, dict]]) -> str:
    """One column per ``(label, ledger)``, in order, and each total's delta
    from the first."""
    names = [name for name, _ledger in columns]
    ledgers = [ledger for _name, ledger in columns]
    cells = [len(f"{ledger[cat]:.0f}") for ledger in ledgers for cat in (*CATEGORIES, "total")]
    width = max(max(len(n) for n in names), max(cells)) + 2
    lines = [f"{'cost type':<12}" + "".join(f"{n:>{width}}" for n in names)]
    for cat in (*CATEGORIES, "total"):
        lines.append(f"{cat:<12}" + "".join(f"{ledger[cat]:>{width}.0f}" for ledger in ledgers))
    deltas = [ledger["total"] - ledgers[0]["total"] for ledger in ledgers]
    lines.append(f"{'delta':<12}" + "".join(f"{d:>{width}.0f}" for d in deltas))
    return "\n".join(lines)


def cmd_compare(args) -> int:
    if len(args.ledgers) < 2:
        print("error: compare needs at least two ledger files", file=sys.stderr)
        return 2
    try:
        ledgers = [read_ledger_json(p) for p in args.ledgers]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a column is labelled by its file's stem unless another file shares it
    stems = [Path(p).stem for p in args.ledgers]
    labels = [p if stems.count(stem) > 1 else stem for p, stem in zip(args.ledgers, stems)]
    print(_comparison_table(list(zip(labels, ledgers))))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hubroster", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize a network and its daily arrivals")
    p_gen.add_argument("--config", type=Path, default=None, help="config JSON (defaults embedded)")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", type=Path, required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run scheduling scenarios on a generated instance")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", type=Path, required=True)
    p_run.add_argument("--scenario", choices=["1", "2", "3", "all"], default="all")
    p_run.add_argument("--noise", choices=["paper", "perfect"], default="paper")
    p_run.add_argument("--debug-forecasts", action="store_true")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="side-by-side cost comparison of ledger files")
    p_cmp.add_argument("ledgers", nargs="+")
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
        if code == 0 and args.command == "run":
            print(f"\ntotal wall time {time.perf_counter() - started:.2f}s")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``| head``) after every output
        # file was written; drop what is left unprinted instead of failing
        # again when it is flushed at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
