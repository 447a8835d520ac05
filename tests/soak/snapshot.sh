# Snapshot soak (docs/SNAPSHOTS.md): 64 sandboxes spawned from one
# on-disk image must trace byte-identically to 64 fresh ELF loads, and
# chaos-driven snapshot restarts must replay byte-identically.
# Usage: snapshot.sh LFI-REWRITE LFI-AS LFI-RUN
. "$(dirname "$0")/common.sh"
build churn
"$run" --snapshot-out=churn.img churn.elf
"$run" --snapshot-in=churn.img --snapshot-spawn=64 --trace spawn.json
"$run" --trace fresh.json $(for i in $(seq 64); do echo churn.elf; done)
cmp spawn.json fresh.json
for seed in 7 8 9; do
  for copy in a b; do
    tolerate --snapshot-in=churn.img --snapshot-spawn=64 \
      --chaos-profile=storm --policy=restart --restart-budget=3 \
      --chaos-seed=$seed --trace $copy$seed.json
  done
  cmp a$seed.json b$seed.json
  grep -q snapshot-restore a$seed.json
done
