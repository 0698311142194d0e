#!/bin/sh
# Run a command and pass only if it exits with exactly the expected
# status and its combined stdout and stderr match an extended regular
# expression (grep -E, one line at a time). CTest's
# PASS_REGULAR_EXPRESSION ignores the exit status, so a regression that
# printed the expected message and then carried on would still pass
# there. Usage:
#
#   tools/expect_exit.sh CODE REGEX command [args...]
set -u

case ${1:-} in
    ''|*[!0-9]*) set -- ;; # CODE must be a number
esac
if [ $# -lt 3 ]; then
    echo "usage: $0 CODE REGEX command [args...]" >&2
    exit 2
fi
want=$1
regex=$2
shift 2

out=$("$@" 2>&1)
rc=$?
printf '%s\n' "$out"
if [ "$rc" -ne "$want" ]; then
    echo "expect_exit: $1 exited with status $rc, expected $want" >&2
    exit 1
fi
if ! printf '%s\n' "$out" | grep -Eq -e "$regex"; then
    echo "expect_exit: output does not match '$regex'" >&2
    exit 1
fi
