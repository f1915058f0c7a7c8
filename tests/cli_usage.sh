#!/bin/sh
# Argument and output-path contract of pao_cli and pao_serve.
#
#   cli_usage.sh threads <pao_cli> <pao_serve>
#     --threads takes a whole integer in [0, 256]; every other value exits 2
#     before any work starts. Each case also names a missing LEF (pao_cli) or
#     an unbindable socket (pao_serve), so a regression that accepts the
#     value fails at startup with exit 3 instead of starting workers.
#   cli_usage.sh gen <pao_cli> <workdir>
#     `pao_cli gen` into a prefix it cannot write exits 3 and never prints
#     "wrote".
set -u

MODE=$1
CLI=$2

fail() {
  echo "FAIL: $*"
  exit 1
}

case "$MODE" in
  threads)
    SERVE=$3
    for v in abc -1 257 100000 4x 1.5 ' 2' ''; do
      for cmd in analyze route bench-incremental; do
        "$CLI" "$cmd" /nonexistent/in.lef /nonexistent/in.def --threads "$v" \
          2>/dev/null
        rc=$?
        [ "$rc" -eq 2 ] || fail "pao_cli $cmd --threads '$v' exited $rc, want 2"
      done
      "$SERVE" --socket /nonexistent/dir/s.sock --threads "$v" 2>/dev/null
      rc=$?
      [ "$rc" -eq 2 ] || fail "pao_serve --threads '$v' exited $rc, want 2"
    done
    # The bounds themselves are accepted: the run gets as far as the missing
    # LEF (exit 3).
    for v in 0 256; do
      "$CLI" analyze /nonexistent/in.lef /nonexistent/in.def --threads "$v" \
        2>/dev/null
      rc=$?
      [ "$rc" -eq 3 ] || fail "pao_cli analyze --threads $v exited $rc, want 3"
    done
    ;;
  gen)
    WORK=$3
    mkdir -p "$WORK"
    out=$("$CLI" gen 0 0.01 /nonexistent/dir/case 2>&1)
    rc=$?
    echo "$out"
    [ "$rc" -eq 3 ] || fail "gen into an unwritable prefix exited $rc, want 3"
    case "$out" in
      *wrote*) fail "gen claimed to write an unwritable prefix" ;;
    esac
    "$CLI" gen 0 0.005 "$WORK/case" 2>/dev/null ||
      fail "gen into a writable prefix failed"
    [ -s "$WORK/case.lef" ] && [ -s "$WORK/case.def" ] ||
      fail "gen left no output"
    ;;
  *)
    fail "unknown mode '$MODE'"
    ;;
esac
echo "OK"
