#!/usr/bin/env bash
# Golden corpus: reruns the campaign-determinism bench commands at --jobs 4
# and diffs their stdout (and CSV, where the bench writes one) byte-for-byte
# against the committed files in tests/golden/.
#
#   tests/golden_corpus.sh <bench-dir>            # check (ctest: golden_corpus)
#   tests/golden_corpus.sh <bench-dir> --update   # rewrite the goldens
#
# A regenerated golden needs a CHANGES.md line naming the semantic change
# that moved it. With --trace-compiled-out (builds configured with
# SCCFT_TRACE_COMPILED_OUT=ON) the two benches fed by data-path trace events
# are skipped: table5_online_margins then measures nothing, by design, and
# table6_adaptive's adaptation loop sees no misses, so its gates fail.
set -u

bench_dir=$1
shift
update=
trace_compiled_out=
for arg in "$@"; do
  case "$arg" in
    --update) update=1 ;;
    --trace-compiled-out) trace_compiled_out=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done
golden_dir=$(CDPATH= cd -- "$(dirname -- "$0")/golden" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
status=0

# golden <name> <csv|-> <bench> [args...]: runs one command; with `csv` the
# bench's --csv export lands next to its stdout under the same name.
golden() {
  local name=$1 csv=$2 bench=$3
  shift 3
  local args=("$@")
  if [[ $csv == csv ]]; then args+=(--csv "$work/$name.csv"); fi
  if ! "$bench_dir/$bench" "${args[@]}" > "$work/$name.out" 2> "$work/$name.err"; then
    echo "FAIL $name: $bench exited non-zero" >&2
    cat "$work/$name.err" >&2
    status=1
  fi
  for ext in out csv; do
    [[ -f $work/$name.$ext ]] || continue
    if [[ -n $update ]]; then
      cp "$work/$name.$ext" "$golden_dir/$name.$ext"
    elif ! diff -u "$golden_dir/$name.$ext" "$work/$name.$ext"; then
      echo "FAIL $name.$ext differs from its golden" >&2
      status=1
    fi
  done
}

golden fault_campaign csv fault_campaign --jobs 4
golden table2_adpcm - table2_adpcm --jobs 4
if [[ -z $trace_compiled_out ]]; then
  golden table5_online_margins csv table5_online_margins --jobs 4 --runs 6
  golden table6_adaptive - table6_adaptive --jobs 4
fi
golden chaos_soak csv chaos_soak --runs 200 --jobs 4
golden chaos_soak_control_plane csv chaos_soak --runs 200 --jobs 4 --control-plane
golden chaos_soak_reconfigure csv chaos_soak --runs 200 --jobs 4 --reconfigure
golden chaos_soak_nreplica3 csv chaos_soak --runs 200 --jobs 4 --nreplica 3
golden fleet csv fleet --runs 2 --max-streams 48 --jobs 4
golden table7_selective csv table7_selective --trials 2 --jobs 4
golden ablation_replicas - ablation_replicas

exit $status
