#!/bin/sh
# Build the node binary and the benchmark harness from source, then run
# the harness with the given arguments, from the root of the repository:
#
#   sh bench/e2e/run.sh --workload write-steady --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the harness's JSON stays the last line
# of stdout. The dune cache is off so that nothing is written outside
# the repository.
#
# Where the system allows it, the harness runs SCHED_FIFO with
# reset-on-fork: the nodes it starts run under the default policy, and
# a request comes due on time even while every core is busy in a
# replica (under the default policy the generator's p99 lateness
# reached 2.5 ms on read-mostly-large, even at nice -10).
set -e
cd "$(dirname "$0")/../.."
DUNE_CACHE=disabled dune build --root . --display quiet \
  ./bin/vsgc_node.exe ./bench/e2e/e2e.exe 1>&2
harness=./_build/default/bench/e2e/e2e.exe
if chrt -R -f 10 true 2>/dev/null; then
  exec chrt -R -f 10 "$harness" "$@"
fi
exec "$harness" "$@"
