# Serving soak (docs/SERVING.md): storm chaos through the request-serving
# control plane for a grid of seeds and arrival shapes. Victims may die
# mid-request, the control plane must finish, and the same seed must
# replay to a byte-identical transcript (stdout is ServeReport::Format).
# Usage: serving.sh LFI-REWRITE LFI-AS LFI-RUN
. "$(dirname "$0")/common.sh"
build handler
for seed in 1 2 3 77 1337 48879; do
  for arrival in poisson bursty closed; do
    tolerate --serve=300 --serve-seed=$seed --serve-arrival=$arrival \
      --serve-rate=500 --serve-pool=4:24 --chaos-seed=$seed \
      --chaos-profile=storm --policy=restart --restart-budget=3 \
      handler.elf > /dev/null
  done
done
serve() {
  tolerate --serve=300 --serve-seed=9 --serve-rate=500 --serve-pool=4:24 \
    --chaos-seed="$1" --chaos-profile=storm --policy=restart \
    --restart-budget=3 handler.elf > "$2"
}
serve 1337 a.txt
serve 1337 b.txt
serve 1338 c.txt
replays a.txt b.txt c.txt
grep -q outcome_hash a.txt
