#!/bin/sh
# Developer pre-flight: clean build (warnings fatal), quick tests, the
# perfbench smoke, the single- vs multi-domain paths of the parallel
# experiment runner, and the shape of a freshly written
# BENCH_explore.json and of the committed BENCH_*.json artifacts. The
# full adversarial suite is `dune runtest`.
set -eu
cd "$(dirname "$0")/.."

echo "== build (warnings are errors under the dev profile) =="
dune build

# Shape check of BENCH_<name>.json files (the stamped artifacts of
# bench/main.exe): each parses, carries the commit/cores/ocaml stamp
# and has the promised keys and verdicts.
check_bench() {
  python3 - "$@" <<'EOF'
import collections, json, os, sys

def shards(rows):
    assert all(r["consistent"] for r in rows), "inconsistent row"
    assert all(r["atomic"] for r in rows), "non-atomic row"
    return "all consistent and atomic"

def service(rows):
    # >=4 load points per backend x curve, both backends, a knee.
    assert {r["backend"] for r in rows} == {"sim", "live"}, "need both backends"
    points = collections.Counter((r["backend"], r["curve"]) for r in rows)
    assert all(v >= 4 for v in points.values()), f"need >=4 points/curve: {points}"
    assert any(r["knee"] for r in rows), "no knee flagged"
    return f"{len(points)} curves"

def faults(rows):
    # Every crash is survived: consistent, and committing again.
    assert all(r["consistent"] for r in rows), "inconsistent row"
    assert all(r["time_to_failover_ms"] is not None and r["ops_after"] > 0
               for r in rows), "a row never recovered"
    return "all consistent and recovered"

def explore(rows):
    # The crash-tolerant protocols exhaust with nonzero reduction
    # ratios; 2PC is convicted and shrunk to the one-crash trace.
    by = {r["protocol"]: r for r in rows}
    for p in ("1paxos", "multipaxos"):
        assert by[p]["outcome"] == "exhausted", f"{p} did not exhaust"
        assert by[p]["dedup_ratio"] > 0, f"{p}: dedup never pruned"
        assert by[p]["sleep_ratio"] > 0, f"{p}: sleep sets never pruned"
    assert by["2pc"]["outcome"] == "violated", "2pc escaped its known violation"
    assert by["2pc"]["shrunk_len"] == 1, "2pc counterexample not 1-minimal"
    return "verdicts as expected"

checks = {
    "shards": (["protocol", "groups", "ops", "throughput_ops",
                "cross_shard_committed", "cross_shard_aborted",
                "alloc_words_per_op", "consistent", "atomic"], shards),
    "service": (["backend", "curve", "offered_ops", "achieved_ops", "p50_us",
                 "p99_us", "p999_us", "service_p99_us", "lease_reads",
                 "knee"], service),
    "faults": (["backend", "protocol", "scenario", "time_to_failover_ms",
                "unavailable_ms", "rate_before_ops", "rate_after_ops",
                "ops_after", "consistent"], faults),
    "explore": (["protocol", "outcome", "states", "executions",
                 "choices_applied", "dedup_ratio", "sleep_ratio",
                 "states_per_s", "trace_len", "shrunk_len"], explore),
}
for path in sys.argv[1:]:
    name = os.path.basename(path)[len("BENCH_"):-len(".json")]
    keys, check = checks[name]
    doc = json.load(open(path))
    for k, t in (("commit", str), ("cores", int), ("ocaml", str)):
        assert isinstance(doc.get(k), t) and doc[k], f"{path}: bad {k} stamp"
    rows = doc["rows"]
    assert rows, f"{path}: no rows"
    for k in keys:
        assert all(k in r for r in rows), f"{path}: missing key {k}"
    print(f"{path}: {len(rows)} rows, {check(rows)}, ok")
EOF
}

echo "== fresh artifact: bench/main.exe explore in a scratch directory =="
# The artifact writer itself runs (about 0.3 s): the model checker's
# verdicts are written to a fresh BENCH_explore.json and shape-checked;
# the committed artifacts are left untouched.
bench_exe="$PWD/_build/default/bench/main.exe"
fresh=$(mktemp -d)
trap 'rm -rf "$fresh"' EXIT
(cd "$fresh" && "$bench_exe" explore > /dev/null)
check_bench "$fresh/BENCH_explore.json"
rm -rf "$fresh"

echo "== quick tests (dune build @runtest-quick) =="
dune build @runtest-quick

echo "== perfbench smoke (every workload, traced and untraced, ~15s) =="
# Every BENCHMARK.json workload once at 0.2 s windows plus 1% of the
# per-layer suite; fails on a missing metric or an incorrect run
# (consistency violation, stale read, failed op, broken 5/10-message
# loopback count).
python3 perfbench/run.py --smoke

echo "== figures byte-identity across --jobs (1 vs 3) =="
tmp1=$(mktemp) && tmp3=$(mktemp) && tmpm=$(mktemp)
trap 'rm -f "$tmp1" "$tmp3" "$tmpm"' EXIT
dune exec bin/consensus_sim.exe -- figures latency --jobs 1 > "$tmp1"
dune exec bin/consensus_sim.exe -- figures latency --jobs 3 > "$tmp3"
cmp "$tmp1" "$tmp3"

echo "== live runtime smoke (3 replicas, both protocols; exits 1 on violation) =="
# Short real-domain runs: ~0.6s measured + drain per protocol, well
# under the 2s budget. `live` exits non-zero if the post-run
# consistency check over the joined replica views finds a violation.
# The 1Paxos run's metrics must carry the event loops' idle-sleep
# accounting (count and mean wall time of the 50 us sleeps).
dune exec bin/consensus_sim.exe -- live --protocol onepaxos \
  --replicas 3 --clients 2 --duration-s 0.5 --drain-s 0.1 --metrics-out "$tmpm"
python3 - "$tmpm" <<'EOF'
import json, sys
m = json.load(open(sys.argv[1]))
for k in ("live.idle.sleeps", "live.idle.sleep_us_mean"):
    assert k in m, f"metrics lack {k}"
    print(f"  {k} = {m[k]}")
EOF
dune exec bin/consensus_sim.exe -- live --protocol multipaxos \
  --replicas 3 --clients 2 --duration-s 0.5 --drain-s 0.1

echo "== codec round-trip smoke (full wire vocabulary, qcheck + zero-alloc) =="
# The codec suite re-encodes every Wire.t constructor through the
# fixed-slot binary codec: bijection, truncation/garbage rejection,
# and the zero-allocation encode guarantee.
dune exec test/test_main.exe -- test codec -q -c

echo "== socket-transport live smoke (both protocols, sharded, nemesis; <=2s each) =="
# The same cores as separate processes over stream sockets, codec as
# the wire format, each child building its own node through the shared
# deployment: both protocols, a 2-group run with cross-shard 2PC (exit
# 1 on a consistency or atomicity violation) and a crash/restart of the
# active acceptor (exit 1 if commits never resume). Exit 3 means this
# host cannot provide sockets/processes — skip, don't fail.
socket_run() {
  [ "$socket_skip" -eq 0 ] || return 0
  rc=0
  dune exec bin/consensus_sim.exe -- "$@" || rc=$?
  if [ "$rc" -eq 3 ]; then
    echo "sockets unavailable on this host; skipping"
    socket_skip=1
  elif [ "$rc" -ne 0 ]; then
    exit "$rc"
  fi
}
socket_skip=0
for proto in onepaxos multipaxos; do
  socket_run live --protocol "$proto" --transport socket --replicas 3 \
    --clients 2 --duration-s 0.5 --drain-s 0.1
done
socket_run live --protocol onepaxos --transport socket --groups 2 \
  --replicas 2 --clients 2 --cross-shard-ratio 0.2 --duration-s 0.4 \
  --drain-s 0.1
socket_run nemesis --backend live --transport socket --protocol 1paxos \
  --replicas 3 --clients 2 --duration-ms 800 --crash 1:250:300

echo "== live shard smoke (2 groups, cross-shard 2PC, both protocols) =="
# Sharded real-domain runs: 2 consensus groups of 2 replicas plus a
# router per group, 30% of commands cross-shard multi-puts. ~0.5s
# measured + drain per protocol, within the 2s budget. `live` exits
# non-zero on a per-group consistency violation OR a cross-shard
# atomicity violation, so both checks gate the pre-flight.
dune exec bin/consensus_sim.exe -- live --protocol onepaxos \
  --groups 2 --replicas 2 --clients 2 --cross-shard-ratio 0.3 \
  --duration-s 0.4 --drain-s 0.1
dune exec bin/consensus_sim.exe -- live --protocol multipaxos \
  --groups 2 --replicas 2 --clients 2 --cross-shard-ratio 0.3 \
  --duration-s 0.4 --drain-s 0.1

echo "== sim byte-identity at groups=1 (sharding off leaves output untouched) =="
# Passing --groups 1 explicitly must be byte-identical to the default
# sim run: at one group there are no routers, no 2PC participants, no
# extra rng draws — the shard layer must leave the trace untouched.
tmpd=$(mktemp) && tmpg=$(mktemp)
trap 'rm -f "$tmp1" "$tmp3" "$tmpd" "$tmpg"' EXIT
dune exec bin/consensus_sim.exe -- run --protocol 1paxos \
  --replicas 3 --clients 5 --duration-ms 30 > "$tmpd"
dune exec bin/consensus_sim.exe -- run --protocol 1paxos \
  --replicas 3 --clients 5 --duration-ms 30 \
  --groups 1 --cross-shard-ratio 0 > "$tmpg"
cmp "$tmpd" "$tmpg"

echo "== nemesis smoke: crash the active acceptor mid-run on the live runtime =="
# Replica 1 hosts the initial active acceptor; it is killed 0.25s into
# a 0.8s measured phase (volatile state lost) and restarted 0.3s later
# through the protocol's own recover path. `nemesis` exits non-zero if
# the post-run consistency check fails or no commit lands after the
# crash, so a broken failover path fails the pre-flight.
dune exec bin/consensus_sim.exe -- nemesis --backend live --protocol 1paxos \
  --replicas 3 --clients 2 --duration-ms 800 --crash 1:250:300

echo "== open-loop load smoke (both backends, <=2s) =="
# Open-loop driver with leader leases on the simulator (deterministic,
# virtual time) and without on real domains. `load` exits non-zero on a
# consistency violation OR any stale session read, so the lease
# read-floor barrier and the read-your-writes checker both gate the
# pre-flight.
dune exec bin/consensus_sim.exe -- load -p 1paxos -d 20 --rate 20000 \
  --key-dist zipf:0.99 --reads 0.9 --lease-us 2000 --lease-skew-us 20
dune exec bin/consensus_sim.exe -- load --backend live -p multipaxos \
  -d 300 --rate 5000 --poisson

echo "== model-checker smoke (exhaustive, one crash, <=2s) =="
# The bounded explorer must fully exhaust the acceptance configs from
# ISSUE 10 — 3 replicas, crash budget 1, no timer nondeterminism — and
# say so. `explore` exits 1 on any safety or liveness violation, so a
# regression that re-opens a counterexample fails the pre-flight; the
# grep additionally rejects a silent downgrade to outcome=bounded.
dune exec bin/consensus_sim.exe -- explore -p 1paxos \
  --fires 0 --crashes 1 --commands 2 --max-depth 48 \
  | grep -q '^outcome=exhausted$'
dune exec bin/consensus_sim.exe -- explore -p multipaxos \
  --fires 0 --crashes 1 --commands 1 --max-depth 48 \
  | grep -q '^outcome=exhausted$'

echo "== protocol-name smoke (one parser: any alias on any subcommand) =="
# Every subcommand parses protocol names through the registry, so the
# live runtime's spelling works on the simulator's nemesis and the
# hyphenated one on the explorer. Both exit non-zero on a violation.
dune exec bin/consensus_sim.exe -- nemesis -p onepaxos \
  --scenario crash-acceptor > /dev/null
dune exec bin/consensus_sim.exe -- explore -p multi-paxos \
  --fires 0 --crashes 1 --commands 1 --max-depth 48 \
  | grep -q '^outcome=exhausted$'

echo "== BENCH_*.json sanity (committed artifacts of bench/main.exe) =="
# Regenerated by `dune exec bench/main.exe -- shards service faults
# explore`; here we only check that each committed artifact has the
# promised shape.
check_bench BENCH_shards.json BENCH_service.json BENCH_faults.json \
  BENCH_explore.json

echo "== OK =="
