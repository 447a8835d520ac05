# Chaos soak (docs/FAULTS.md): a multi-sandbox workload under the storm
# profile for a grid of seeds and fault policies. Sandboxes may die, the
# runtime must not, and the same seed must replay to a byte-identical
# trace.
# Usage: chaos.sh LFI-REWRITE LFI-AS LFI-RUN
. "$(dirname "$0")/common.sh"
build churn spin
for seed in 1 2 3 77 1337 48879; do
  for policy in kill signal restart; do
    tolerate --chaos-seed=$seed --chaos-profile=storm --policy=$policy \
      --restart-budget=3 churn.elf spin.elf churn.elf
  done
done
storm() {
  tolerate --chaos-seed="$1" --chaos-profile=storm --policy=restart \
    --restart-budget=3 --trace "$2" churn.elf spin.elf
}
storm 1337 a.json
storm 1337 b.json
storm 1338 c.json
replays a.json b.json c.json
