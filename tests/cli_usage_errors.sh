#!/bin/sh
# Every CLI and sweep bench answers a malformed command line with exit
# status 2 and a message naming the offending flag or workload.
#
#   cli_usage_errors.sh EXAMPLES_DIR FIG07_BINARY
#
# Each row runs under a timeout: a daemon that accepted a bad flag
# would otherwise start serving instead of exiting.
bin="$1"
fig07="$2"
failed=0

expect_usage() {
    # expect_usage NEEDLE COMMAND... (NEEDLE: text stderr must contain,
    # beyond a usage summary that lists every flag anyway)
    needle="$1"
    shift
    err=$(timeout 20 "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "FAIL (exit $rc, want 2): $*"
        failed=1
    elif ! printf '%s\n' "$err" | grep -q -- "$needle"; then
        echo "FAIL (stderr does not name '$needle'): $*"
        printf '%s\n' "$err" | sed 's/^/    /'
        failed=1
    else
        echo "ok: $*"
    fi
}

expect_usage "'NOSUCH'" "$bin/rm-inspect" NOSUCH
expect_usage "'NOSUCH'" "$bin/rm-lint" NOSUCH
expect_usage "'NOSUCH'" "$bin/regmutex_cc" NOSUCH
expect_usage "--port needs" "$bin/rm-serve" --port abc --workers abc
expect_usage "--port needs" "$bin/rm-serve" --port
expect_usage "--tenants needs" "$bin/rm-loadgen" --port 1 --tenants abc
expect_usage "--port needs" "$bin/rm-loadgen" --port
expect_usage "--tenants needs" "$bin/rm-loadgen" --port 1 --tenants -1
expect_usage "--es needs" "$bin/rm-inspect" BFS --es -1
expect_usage "--sample-interval needs" \
    "$bin/rm-inspect" BFS --sample-interval -5
expect_usage "--time-budget needs" "$bin/rm-fuzz" --time-budget 1x
expect_usage "--cases needs" "$bin/rm-fuzz" --cases abc
expect_usage "--sms needs" "$fig07" --sms abc

exit $failed
