# Sourced by every soak script:  . common.sh LFI-REWRITE LFI-AS LFI-RUN
# The script runs in its own scratch directory; the .s workloads live
# next to this file.
set -eu
rewrite=$1
as=$2
run=$3
src=$(dirname "$0")

# Rewrites and assembles each named workload into NAME.elf.
build() {
  for w in "$@"; do
    "$rewrite" -O2 "$src/$w.s" "${w}_lfi.s"
    "$as" "${w}_lfi.s" "$w.elf"
  done
}

# Runs lfi-run. Exit 0 and 1 (a sandbox was killed, or a serving run
# aborted at max_steps) are fine; 2+ or a crash means the runtime broke.
tolerate() {
  rc=0
  "$run" "$@" || rc=$?
  if [ "$rc" -gt 1 ]; then
    echo "runtime failure (rc=$rc): lfi-run $*" >&2
    exit 1
  fi
}

# The replay contract: same-seed outputs $1 and $2 are byte-identical,
# and $3, from another seed, differs.
replays() {
  cmp "$1" "$2"
  if cmp -s "$1" "$3"; then
    echo "different seeds produced identical output: $1 $3" >&2
    exit 1
  fi
}
