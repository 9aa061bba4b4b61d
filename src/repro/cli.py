"""Command-line interface.

Six subcommands mirror the workflow a user of the original system
walks through:

- ``run``      — train one Dordis session and report utility + ε:
  exits 1 when the session ends over its ε budget (the stderr warning
  names the rounds past the XNoise tolerance), 2 on usage errors;
- ``plan``     — offline noise planning: print the per-round σ for a
  budget/horizon (§2.2);
- ``pipeline`` — print plain-vs-pipelined round times and the optimal
  chunk count for a workload (§4);
- ``serve``    — the cross-process coordinator: bind ONE listening
  port, wait for every ``join`` process to dial in, run one
  secure-aggregation round across them, and report (or ``--json``-emit)
  the measured traffic — the production topology, one process per
  party;
- ``join``     — one dialing device: connect to a ``serve``
  coordinator, answer its requests with the deterministic demo inputs
  for ``--client-id``, and print this end's byte counters as JSON
  (``--die-after K`` vanishes after K answers — dropout injection);
- ``check``    — run the repo's own AST-based invariant checker
  (``repro.analysis``) over ``src/repro``: exits 0 when clean, 1 on
  any finding, 2 on usage errors.

Examples::

    python -m repro.cli run --task cifar10-like --dropout-rate 0.2 \\
        --strategy xnoise --rounds 8
    python -m repro.cli plan --rounds 150 --epsilon 6 --delta 0.01
    python -m repro.cli pipeline --clients 100 --model-size 11000000
    python -m repro.cli serve --clients 3 --port 7001   # terminal 1
    python -m repro.cli join --client-id 1 --clients 3 --port 7001  # 2..4
    python -m repro.cli check
    python -m repro.cli check --format json
"""

from __future__ import annotations

import argparse
import sys


def _add_run_parser(sub) -> None:
    p = sub.add_parser("run", help="train one Dordis session")
    p.add_argument("--task", default="cifar10-like",
                   choices=["cifar10-like", "cifar100-like", "femnist-like",
                            "reddit-like"])
    p.add_argument("--model", default=None,
                   choices=["softmax", "mlp", "bigram"],
                   help="defaults to softmax (bigram for reddit-like)")
    p.add_argument("--num-clients", type=int, default=40)
    p.add_argument("--sample-size", type=int, default=12)
    p.add_argument("--rounds", type=int, default=8)
    p.add_argument("--epsilon", type=float, default=6.0)
    p.add_argument("--clip-bound", type=float, default=0.5)
    p.add_argument("--learning-rate", type=float, default=0.15)
    p.add_argument("--dropout-rate", type=float, default=0.0)
    p.add_argument("--availability", default="fixed",
                   choices=["fixed", "trace"],
                   help="fixed: i.i.d. dropout at --dropout-rate; trace: "
                        "Fig.-1a behaviour-trace churn (rate swings per "
                        "round, --dropout-rate ignored; lazily derived at "
                        "large n or with --correlation)")
    p.add_argument("--correlation", type=float, default=0.0,
                   help="rank-correlate link speed with availability "
                        "(slow-link devices are also flaky); needs "
                        "--availability trace")
    p.add_argument("--asymmetric", action="store_true",
                   help="give devices independent Zipf downlinks "
                        "(100-1000 Mbps) instead of symmetric links")
    p.add_argument("--strategy", default="xnoise",
                   help="orig | early | conK | xnoise")
    p.add_argument("--mechanism", default="gaussian",
                   choices=["gaussian", "skellam"])
    p.add_argument("--transport", default="inprocess",
                   choices=["inprocess", "sockets"],
                   help="engine transport for protocol rounds, priced on "
                        "the fleet's links: the in-process wire "
                        "serialization boundary, or real framed-TCP "
                        "connections")
    p.add_argument("--seed", type=int, default=0)


def _add_plan_parser(sub) -> None:
    p = sub.add_parser("plan", help="offline noise planning")
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sensitivity", type=float, default=1.0)
    p.add_argument("--mechanism", default="gaussian",
                   choices=["gaussian", "skellam"])


def _add_pipeline_parser(sub) -> None:
    p = sub.add_parser("pipeline", help="pipeline speedup for a workload")
    p.add_argument("--clients", type=int, required=True)
    p.add_argument("--model-size", type=int, required=True)
    p.add_argument("--protocol", default="secagg", choices=["secagg", "secagg+"])
    p.add_argument("--xnoise", action="store_true")
    p.add_argument("--dropout-rate", type=float, default=0.0)
    p.add_argument("--max-chunks", type=int, default=20)


def _add_serve_parser(sub) -> None:
    p = sub.add_parser(
        "serve",
        help="cross-process coordinator: one listening port, one "
             "secure-aggregation round over dialing `join` processes",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listening port (0 picks an ephemeral one; the "
                        "first output line is always "
                        "`listening <host> <port>`)")
    p.add_argument("--clients", type=int, default=5,
                   help="cohort size — expects exactly these client ids "
                        "(1..N) to dial in")
    p.add_argument("--dimension", type=int, default=16)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--auth-token", default="",
                   help="shared secret demanded from every HELLO "
                        "(empty: unauthenticated)")
    p.add_argument("--join-timeout", type=float, default=30.0,
                   help="seconds to wait for a client to dial in before "
                        "treating it as a dropout")
    p.add_argument("--json", action="store_true",
                   help="emit one JSON document (aggregate, participant "
                        "sets, per-span traffic) instead of the table — "
                        "the machine-readable parity contract")
    p.add_argument("--seed", type=int, default=0)


def _add_join_parser(sub) -> None:
    p = sub.add_parser(
        "join",
        help="one dialing device for a `serve` coordinator",
    )
    p.add_argument("--client-id", type=int, required=True,
                   help="this device's id (1..--clients)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, required=True,
                   help="the coordinator's listening port")
    p.add_argument("--clients", type=int, default=5,
                   help="cohort size — must match the serve side so the "
                        "deterministic demo inputs line up")
    p.add_argument("--dimension", type=int, default=16)
    p.add_argument("--bits", type=int, default=16)
    p.add_argument("--auth-token", default="",
                   help="shared secret presented in the HELLO")
    p.add_argument("--die-after", type=int, default=None,
                   help="answer this many requests, then vanish without "
                        "a goodbye (dropout injection)")
    p.add_argument("--seed", type=int, default=0,
                   help="must match the serve side")


def _add_check_parser(sub) -> None:
    p = sub.add_parser(
        "check",
        help="run the AST-based invariant checker over src/repro",
    )
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format: human-readable lines (default) or "
                        "one machine-readable JSON document")
    p.add_argument("--root", default=None,
                   help="repository root to check (default: the checkout "
                        "this package was loaded from)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Dordis reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_plan_parser(sub)
    _add_pipeline_parser(sub)
    _add_serve_parser(sub)
    _add_join_parser(sub)
    _add_check_parser(sub)
    return parser


def _demo_round_setup(n: int, dimension: int, bits: int, seed: int):
    """The deterministic demo cohort shared by ``serve`` and ``join``:
    every process deriving from the same seed sees the same config and
    the same per-client ring vectors, so a cross-process round is
    bit-comparable to an in-process one."""
    from repro.secagg.types import SecAggConfig
    from repro.utils.rng import derive_rng

    config = SecAggConfig(
        threshold=max(2, n // 2 + 1),
        bits=bits,
        dimension=dimension,
        dh_group="modp512",
    )
    rng = derive_rng("sockets-demo", seed)
    inputs = {
        u: rng.integers(0, config.modulus, size=dimension)
        for u in range(1, n + 1)
    }
    return config, inputs


def _cmd_run(args) -> int:
    import numpy as np

    from repro.core import DordisConfig, DordisSession
    from repro.fleet import FleetConfig

    model = args.model or ("bigram" if args.task == "reddit-like" else "softmax")
    optimizer = "adamw" if args.task == "reddit-like" else "sgd"
    if args.correlation and args.availability == "fixed":
        print(
            "--correlation couples link speed to availability, which "
            "the fixed-rate model cannot express; add "
            "--availability trace",
            file=sys.stderr,
        )
        return 2
    fleet = FleetConfig(
        availability=args.availability,
        downlink_range=(100e6 / 8, 1000e6 / 8) if args.asymmetric else None,
        correlation=args.correlation,
    )
    config = DordisConfig(
        task=args.task,
        model=model,
        num_clients=args.num_clients,
        sample_size=args.sample_size,
        rounds=args.rounds,
        epsilon=args.epsilon,
        clip_bound=args.clip_bound,
        learning_rate=args.learning_rate,
        optimizer=optimizer,
        dropout_rate=args.dropout_rate,
        strategy=args.strategy,
        mechanism=args.mechanism,
        transport=args.transport,
        seed=args.seed,
        fleet=fleet,
    )
    session = DordisSession(config)
    result = session.run()
    dropout = (
        f"{args.availability} (mean {float(np.mean(result.dropout_history)):.0%})"
        if args.availability == "trace"
        else f"{args.dropout_rate:.0%}"
    )
    print(f"task={args.task} strategy={args.strategy} dropout={dropout}")
    print(f"rounds completed : {result.rounds_completed}"
          f"{' (stopped early)' if result.stopped_early else ''}")
    print(f"final {result.metric_name:10s}: {result.final_metric:.4f}")
    print(f"epsilon consumed : {result.epsilon_consumed:.3f} "
          f"(budget {args.epsilon})")
    overspent = result.epsilon_consumed > args.epsilon
    if overspent:
        past = ", ".join(map(str, result.past_tolerance_rounds)) or "none"
        print(f"warning: epsilon consumed {result.epsilon_consumed:.3f} exceeds "
              f"the budget {args.epsilon}; rounds past the XNoise tolerance "
              f"(|D| > T): {past}", file=sys.stderr)
    if result.round_seconds_history:
        trace = session.engine.trace
        print(f"mean round       : "
              f"{float(np.mean(result.round_seconds_history)):.3f} s "
              f"(fleet-timed)")
        print(f"traffic          : {trace.total_down_bytes / 2**20:.2f} MiB "
              f"down, {trace.total_up_bytes / 2**20:.2f} MiB up")
    # A run that ends over its privacy budget did not do what was asked.
    return 1 if overspent else 0


def _cmd_plan(args) -> int:
    from repro.dp.planner import plan_noise

    plan = plan_noise(
        rounds=args.rounds,
        epsilon_budget=args.epsilon,
        delta=args.delta,
        l2_sensitivity=args.sensitivity,
        mechanism=args.mechanism,
    )
    print(f"mechanism        : {plan.mechanism}")
    print(f"per-round sigma  : {plan.sigma:.6g}")
    print(f"noise multiplier : {plan.noise_multiplier:.6g}")
    print(f"epsilon at R={args.rounds}: {plan.epsilon_if_executed():.4f} "
          f"(budget {args.epsilon})")
    return 0


def _cmd_pipeline(args) -> int:
    from repro.pipeline import build_dordis_perf_model, compare_plain_pipelined

    model = build_dordis_perf_model(
        args.clients,
        args.model_size,
        protocol=args.protocol,
        xnoise=args.xnoise,
        dropout_rate=args.dropout_rate,
    )
    plain, pipe, speedup = compare_plain_pipelined(
        model, args.model_size, max_chunks=args.max_chunks
    )
    print(f"plain round      : {plain.total / 60:.2f} min "
          f"(agg {plain.aggregation_share:.0%})")
    print(f"optimal chunks   : m* = {pipe.n_chunks}")
    print(f"pipelined round  : {pipe.total / 60:.2f} min")
    print(f"speedup          : {speedup:.2f}x")
    return 0


def _cmd_serve(args) -> int:
    import json

    import numpy as np

    from repro.engine import CoordinatorListener, ListenerTransport, RoundEngine
    from repro.engine.core import run_sync
    from repro.secagg.driver import secagg_round_components
    from repro.secagg.types import ProtocolAbort

    n = args.clients
    if n < 3:
        print("need at least 3 clients", file=sys.stderr)
        return 2
    if not 0 <= args.port <= 65535:
        print(f"--port must be in [0, 65535], not {args.port}",
              file=sys.stderr)
        return 2
    if args.join_timeout <= 0:
        print("--join-timeout must be positive", file=sys.stderr)
        return 2
    config, inputs = _demo_round_setup(n, args.dimension, args.bits, args.seed)
    # The local workflow clients are inert id-carriers: every state
    # machine lives behind a socket, in a `join` process.
    server, clients = secagg_round_components(config, dict(inputs))

    async def run():
        listener = CoordinatorListener(
            args.host,
            args.port,
            expected_ids=set(inputs),
            auth_token=args.auth_token.encode(),
            join_timeout=args.join_timeout,
        )
        host, port = await listener.start()
        # The contract line a supervising process (or a human in a
        # second terminal) parses to learn the ephemeral port.
        print(f"listening {host} {port}", flush=True)
        engine = RoundEngine(transport=ListenerTransport(listener))
        try:
            result = await engine.run_round(server, clients)
        finally:
            await listener.aclose()
        return listener, engine, result

    try:
        listener, engine, result = run_sync(run())
    except ProtocolAbort as exc:
        # Too few joined (or survived) for the threshold: a named
        # outcome of the protocol, not a crash.
        print(f"serve: round aborted: ProtocolAbort: {exc}", file=sys.stderr)
        return 1

    expected = np.zeros(config.dimension, dtype=np.int64)
    for u in result.u3:
        expected = (expected + inputs[u]) % config.modulus
    ok = np.array_equal(result.aggregate, expected)
    total = engine.trace.round_traffic_bytes(0)
    split = engine.trace.round_traffic_split(0)
    stats = listener.closed_connection_stats
    balanced = (
        total == sum(s.frame_bytes for s in stats)
        and split.down == sum(s.down_bytes for s in stats)
        and split.up == sum(s.up_bytes for s in stats)
    )

    if args.json:
        print(json.dumps({
            "protocol": "secagg",
            "clients": n,
            "u3": sorted(result.u3),
            "u5": sorted(result.u5),
            "aggregate": [int(x) for x in result.aggregate],
            "aggregate_ok": bool(ok),
            "spans": [
                {"label": s.label, "begin": s.begin, "finish": s.finish,
                 "down": s.down_bytes, "up": s.up_bytes}
                for s in engine.trace.spans
            ],
            "traffic": {"down": split.down, "up": split.up, "total": total},
            "connections": len(stats),
            "accepted": listener.accepted,
            "rejected": listener.rejected,
            "balanced": balanced,
        }))
        return 0 if ok else 1

    print("protocol         : SecAgg over framed TCP (cross-process)")
    print(f"cohort/survived  : {n} expected, {listener.accepted} joined, "
          f"{len(result.u3)} in U3")
    print(f"aggregate        : "
          f"{'verified — ring sum over U3 matches' if ok else 'MISMATCH'}")
    print()
    print("measured per-stage traffic (framed bytes on the socket):")
    print(f"  {'stage':20s} {'down':>10s} {'up':>10s} {'total':>10s}")
    for label, stage in engine.trace.stage_traffic_split(0).items():
        if stage.total:
            print(f"  {label:20s} {stage.down:>10,d} {stage.up:>10,d} "
                  f"{stage.total:>10,d}")
    print(f"  {'total':20s} {split.down:>10,d} {split.up:>10,d} "
          f"{total:>10,d}")
    print(f"accounting check : "
          f"{'✓' if balanced else '✗ (clients died mid-round?)'}")
    return 0 if ok else 1


def _cmd_join(args) -> int:
    import json

    from repro.engine import DialingClient
    from repro.engine.core import run_sync
    from repro.secagg.driver import secagg_round_components

    n = args.clients
    if n < 3:
        print("need at least 3 clients", file=sys.stderr)
        return 2
    if not 1 <= args.port <= 65535:
        print(f"--port must be in [1, 65535], not {args.port}",
              file=sys.stderr)
        return 2
    if not 1 <= args.client_id <= n:
        print(f"--client-id must be in [1, {n}] for a {n}-client cohort",
              file=sys.stderr)
        return 2
    if args.die_after is not None and args.die_after < 1:
        print("--die-after must be at least 1", file=sys.stderr)
        return 2
    config, inputs = _demo_round_setup(n, args.dimension, args.bits, args.seed)
    # Identical construction to the in-process round — only this
    # client's workflow actually serves; the rest are garbage-collected.
    _server, clients = secagg_round_components(config, dict(inputs))
    workflow = next(c for c in clients if c.id == args.client_id)
    dialer = DialingClient(
        workflow,
        args.host,
        args.port,
        auth_token=args.auth_token.encode(),
        max_requests=args.die_after,
    )
    try:
        run_sync(dialer.run())
    except (ValueError, ConnectionError) as exc:
        print(f"join failed: {exc}", file=sys.stderr)
        return 1
    # This end's ground-truth byte counters — the cross-process twin of
    # ConnectionStats.endpoint_*, reported on stdout instead.
    print(json.dumps({
        "client_id": args.client_id,
        "bytes_sent": dialer.bytes_sent,
        "bytes_received": dialer.bytes_received,
        "request_bytes": dialer.request_bytes,
        "response_bytes": dialer.response_bytes,
        "requests": dialer.requests,
        "handshake_sent": dialer.handshake_sent,
        "handshake_received": dialer.handshake_received,
    }))
    return 0


def _cmd_check(args) -> int:
    from pathlib import Path

    from repro.analysis import render_json, render_text, run_check

    root = Path(args.root).resolve() if args.root else None
    try:
        result = run_check(root=root)
    except FileNotFoundError as exc:
        print(f"check: {exc}", file=sys.stderr)
        return 2
    render = render_json if args.format == "json" else render_text
    print(render(result))
    return 0 if result.clean else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "plan": _cmd_plan,
        "pipeline": _cmd_pipeline,
        "serve": _cmd_serve,
        "join": _cmd_join,
        "check": _cmd_check,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
