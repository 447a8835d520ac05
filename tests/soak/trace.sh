# Observability end to end: a program rewritten, assembled and run under
# --stats and --trace. The Chrome trace must parse with the expected
# events, and two identical runs must write byte-identical traces (the
# trace clock is the simulated-cycle counter).
# Usage: trace.sh LFI-REWRITE LFI-AS LFI-RUN PYTHON
python=$4
. "$(dirname "$0")/common.sh"
build hello
"$run" --stats --trace run1.json hello.elf 2> stats.txt
cat stats.txt
"$run" --trace run2.json hello.elf
"$python" - <<'PY'
import json
with open('run1.json') as f:
    events = json.load(f)['traceEvents']
assert events, 'trace has no events'
phases = {e['ph'] for e in events}
assert 'M' in phases, 'missing thread_name metadata'
assert 'X' in phases, 'missing complete (slice) events'
names = {e.get('name') for e in events}
assert 'sched-slice' in names, f'no sched-slice event in {names}'
assert 'proc-exit' in names, f'no proc-exit event in {names}'
print(f'trace OK: {len(events)} events, phases {sorted(phases)}')
PY
cmp run1.json run2.json
grep -q inst-retired stats.txt
grep -q "verifier:" stats.txt
