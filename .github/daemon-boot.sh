# Daemon boot helpers shared by CI's smoke jobs. Source this file from a
# job step (after `set -euo pipefail`), then:
#
#   ADDR=$(listen_addr mtatd.log)   # wait for the listen line, print host:port
#   wait_ready "$ADDR"              # poll /readyz until the daemon is ready
#
# Both give up after 50 tries 0.2s apart. listen_addr parses the
# "listening on http://ADDR" line rather than the first address in the
# log, because mtatfleet logs its nodes' addresses before its own.

listen_addr() { # wait for the daemon's listen line in a log file
  local log=$1 addr=""
  for i in $(seq 1 50); do
    addr=$(sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$log" | head -n1)
    [ -n "$addr" ] && break
    sleep 0.2
  done
  test -n "$addr" || { echo "daemon never came up" >&2; cat "$log" >&2; exit 1; }
  echo "$addr"
}

wait_ready() { # poll /readyz until the daemon reports ready
  local addr=$1
  for i in $(seq 1 50); do
    curl -sf "http://$addr/readyz" > /dev/null && return 0
    sleep 0.2
  done
  echo "daemon $addr never became ready" >&2
  curl -s "http://$addr/readyz" >&2 || true
  return 1
}
