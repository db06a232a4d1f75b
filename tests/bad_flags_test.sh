#!/bin/sh
# Runs each tool with a bad flag and requires exit 2 with the flag named on
# stderr. Each command line here was once read as some other valid request:
# a value narrowed to int, a value on a bare flag ignored, or an unknown
# preset name taken for v100.
#
# usage: bad_flags_test.sh P2_PLAN P2_SERVER P2_CLIENT P2_SHARD
plan=$1 server=$2 client=$3 shard=$4
failures=0
stderr_file=$(mktemp)
trap 'rm -f "$stderr_file"' EXIT

# expect FLAG COMMAND...: COMMAND exits 2 and names FLAG on stderr. The
# timeout ends a tool that accepts the line and starts serving or planning.
expect() {
  flag=$1
  shift
  timeout 30 "$@" > /dev/null 2> "$stderr_file"
  status=$?
  if [ "$status" -ne 2 ] ||
     ! grep -Eq -- "$flag([^-a-z]|\$)" "$stderr_file"; then
    echo "FAIL (exit $status, want 2 naming $flag): $*"
    sed 's/^/  | /' "$stderr_file"
    failures=$((failures + 1))
  fi
}

expect --reduce "$plan" --nodes=2 --axes=8,4 --reduce=4294967296
expect --nodes "$plan" --nodes=4294967298 --axes=8,4 --reduce=0
expect --topology "$plan" --topology=a100:4294967297 --grid
expect --top-k "$plan" --nodes=2 --axes=8,4 --reduce=0 --top-k=4294967297

expect --port "$server" --port=4294967296
expect --service-threads "$server" --service-threads=4294967298
expect --cache-server "$server" --cache-server=false
expect --grant-ttl-ms "$server" --grant-ttl-ms=0
expect --drain-grace-ms "$server" --drain-grace-ms=-5

# Port 1 on the loopback interface refuses connections, so a client that
# accepts its flags fails fast instead of reaching a server.
expect --port "$client" --port=4294967297
expect --nodes "$client" --port=1 --nodes=4294967297 --grid
expect --concurrency "$client" --port=1 --concurrency=4294967296
expect --shutdown "$client" --port=1 --shutdown=no
expect --stats "$client" --port=1 --stats=no
expect --grid "$client" --port=1 --grid=0

expect --num-shards "$shard" --num-shards=4294967297
expect --system "$shard" --system=x100
expect --merge "$shard" --merge=no no-such-shard-file.txt

if [ "$failures" -ne 0 ]; then
  echo "$failures command lines were not rejected"
  exit 1
fi
echo "every bad flag exits 2 and is named"
