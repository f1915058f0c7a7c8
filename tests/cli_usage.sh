#!/bin/sh
# Argument and output-path contract of pao_cli and pao_serve.
#
#   cli_usage.sh threads <pao_cli> <pao_serve>
#     --threads takes a whole integer in [0, 256]; every other value exits 2
#     before any work starts. Each case also names a missing LEF (pao_cli) or
#     an unbindable socket (pao_serve), so a regression that accepts the
#     value fails at startup with exit 3 instead of starting workers.
#   cli_usage.sh flags <pao_cli> <pao_serve> <workdir>
#     Every other numeric flag parses whole, and --mode is one of bca, nobca,
#     legacy: a bad value exits 2 before any work starts, paired with a
#     missing LEF or an unbindable socket as above. --port cannot be paired
#     with --socket (the two together are a usage error already), so its
#     case is recognized by the flag's own stderr line. --mode and --threads
#     apply in either order.
#   cli_usage.sh gen <pao_cli> <workdir>
#     `pao_cli gen` into a prefix it cannot write exits 3 and never prints
#     "wrote". A <preset> that is not 0-9, a, m or h, or a <scale> that is
#     not a number > 0, exits 2 and writes nothing.
#   cli_usage.sh tools <report_check> <pao_client>
#     report_check's trace <minSpans> and pao_client's --port, --partial and
#     --retry-ms parse whole: a bad value exits 2 naming the flag, before
#     any file is read or socket opened.
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
  flags)
    SERVE=$3
    WORK=$4
    mkdir -p "$WORK"
    expect2() {
      "$@" 2>/dev/null
      rc=$?
      [ "$rc" -eq 2 ] || fail "'$*' exited $rc, want 2"
    }
    MISSING="/nonexistent/in.lef /nonexistent/in.def"
    SOCK=/nonexistent/dir/s.sock
    for v in abc -1 4x 1.5 ' 2' '' 99999999999999999999; do
      expect2 "$CLI" bench-incremental $MISSING --moves "$v"
      expect2 "$CLI" bench-incremental $MISSING --seed "$v"
      expect2 "$CLI" analyze $MISSING --report-failed "$v"
      expect2 "$SERVE" --socket "$SOCK" --budget "$v"
      expect2 "$SERVE" --socket "$SOCK" --max-tenants "$v"
      expect2 "$SERVE" --socket "$SOCK" --slow-micros "$v"
      err=$("$SERVE" --socket "$SOCK" --port "$v" 2>&1)
      rc=$?
      [ "$rc" -eq 2 ] || fail "pao_serve --port '$v' exited $rc, want 2"
      case "$err" in
        *--port:*) ;;
        *) fail "pao_serve --port '$v' did not reject the value: $err" ;;
      esac
    done
    err=$("$SERVE" --socket "$SOCK" --port 65536 2>&1)
    case "$err" in
      *--port:*) ;;
      *) fail "pao_serve --port 65536 did not reject the value: $err" ;;
    esac
    for v in abc -1 -0.5 nan inf 1s ''; do
      expect2 "$CLI" analyze $MISSING --step3-budget "$v"
      expect2 "$CLI" route $MISSING --step3-budget "$v"
    done
    expect2 "$SERVE" --socket "$SOCK" --budget 0
    expect2 "$SERVE" --socket "$SOCK" --max-tenants 0
    expect2 "$CLI" analyze $MISSING --mode foo
    expect2 "$CLI" analyze $MISSING --mode ''
    # Accepted values get as far as the missing LEF / unbindable socket.
    "$CLI" analyze $MISSING --step3-budget 0.5 --report-failed 3 2>/dev/null
    rc=$?
    [ "$rc" -eq 3 ] || fail "valid analyze flags exited $rc, want 3"
    "$SERVE" --socket "$SOCK" --budget 1 --max-tenants 1 \
      --slow-micros 0 2>/dev/null
    rc=$?
    [ "$rc" -eq 3 ] || fail "valid pao_serve flags exited $rc, want 3"
    # --mode must not reset a --threads given before it.
    "$CLI" gen 0 0.005 "$WORK/case" 2>/dev/null || fail "gen failed"
    for order in "--threads 4 --mode legacy" "--mode legacy --threads 4"; do
      rm -f "$WORK/mode.json"
      # shellcheck disable=SC2086
      "$CLI" analyze "$WORK/case.lef" "$WORK/case.def" $order \
        --report-json "$WORK/mode.json" 2>/dev/null
      rc=$?
      [ "$rc" -le 1 ] || fail "analyze $order exited $rc"
      grep -q '"mode": "legacy"' "$WORK/mode.json" ||
        fail "analyze $order did not run legacy mode"
      grep -q '"threads": 4' "$WORK/mode.json" ||
        fail "analyze $order did not run at 4 threads"
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
    for args in "abc 0.005" "10 0.005" "-1 0.005" "0x 0.005" "1.5 0.005" \
        "0 zzz" "0 0" "0 -1" "0 nan" "0 0.005x" "h abc" "m 0" "a inf"; do
      rm -f "$WORK/bad.lef" "$WORK/bad.def"
      # shellcheck disable=SC2086
      "$CLI" gen $args "$WORK/bad" 2>/dev/null
      rc=$?
      [ "$rc" -eq 2 ] || fail "gen $args exited $rc, want 2"
      [ -e "$WORK/bad.lef" ] || [ -e "$WORK/bad.def" ] &&
        fail "gen $args wrote output"
    done
    ;;
  tools)
    CHECK=$2
    CLIENT=$3
    SOCK=/nonexistent/dir/s.sock
    expect2named() {
      flag=$1
      shift
      err=$("$@" 2>&1)
      rc=$?
      [ "$rc" -eq 2 ] || fail "'$*' exited $rc, want 2"
      case "$err" in
        *"$flag:"*) ;;
        *) fail "'$*' did not reject the $flag value: $err" ;;
      esac
    }
    for v in abc -1 4x 1.5 ' 2' '' 99999999999999999999; do
      expect2named minSpans "$CHECK" trace /nonexistent/t.json "$v"
      expect2named --port "$CLIENT" --port "$v"
      expect2named --partial "$CLIENT" --socket "$SOCK" --partial "$v"
      expect2named --retry-ms "$CLIENT" --socket "$SOCK" --retry-ms "$v"
    done
    expect2named --port "$CLIENT" --port 65536
    # Accepted values get as far as the missing socket (exit 3).
    "$CLIENT" --socket "$SOCK" --retry-ms 0 --partial 5 '{}' 2>/dev/null
    rc=$?
    [ "$rc" -eq 3 ] || fail "valid pao_client flags exited $rc, want 3"
    ;;
  *)
    fail "unknown mode '$MODE'"
    ;;
esac
echo "OK"
