# Resilience soak (docs/SERVING.md): storm tenant 0 with quotas,
# deadline-aware retries and the circuit breaker engaged. Every bystander
# tenant must come through with no failures, faults or SLO violations,
# the storm must actually hit tenant 0, and the same seeds must replay
# to a byte-identical transcript.
# Usage: resilience.sh LFI-REWRITE LFI-AS LFI-RUN
. "$(dirname "$0")/common.sh"
build handler
serve() {
  "$run" --serve=400 --serve-rate=400 --serve-pool=4:24 \
    --serve-slo=20000000 --serve-quota=2:16 --serve-retries=2 \
    --serve-retry-backoff=10000:100000 --serve-breaker=4:1000000 \
    --chaos-profile=storm --chaos-tenants=0 "$@" handler.elf
}
total_injected=0
for seed in 5 21 909 31337; do
  for arrival in poisson bursty closed; do
    out=run-$seed-$arrival.txt
    serve --serve-seed=$seed --serve-arrival=$arrival --chaos-seed=$seed \
      > "$out"
    for t in 1 2 3; do
      line=$(grep "^tenant $t:" "$out") || {
        echo "missing tenant $t line in $out" >&2
        exit 1
      }
      for field in failed=0 faults=0 slo_violations=0; do
        case " $line " in
          *" $field "*) ;;
          *) echo "tenant $t not clean in $out: $line" >&2; exit 1 ;;
        esac
      done
    done
    injected=$(sed -n 's/^tenant 0: .*injected=\([0-9]*\).*/\1/p' "$out")
    total_injected=$((total_injected + injected))
  done
done
# Clean bystanders prove nothing unless the storm hit the victim.
if [ "$total_injected" -eq 0 ]; then
  echo "storm never hit tenant 0" >&2
  exit 1
fi
serve --serve-seed=9 --serve-degrade --chaos-seed=4242 > a.txt
serve --serve-seed=9 --serve-degrade --chaos-seed=4242 > b.txt
serve --serve-seed=9 --serve-degrade --chaos-seed=4243 > c.txt
replays a.txt b.txt c.txt
grep -q "^resilience: " a.txt
