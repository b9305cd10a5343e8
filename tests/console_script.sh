# The installed console script's checks, run from "$RUNNER_TEMP" against
# the goldens under "$GITHUB_WORKSPACE"/tests/data.  Run it with `bash -e`,
# so that any failing check, timeout's 124 included, stops it nonzero.
cd "$RUNNER_TEMP"
mcmimo symrate --preset two-cell-scenario-a > symrate.csv
test "$(head -n 1 symrate.csv)" = "scope,rate,theta_mask,omega_mask"
printf '{"L": ' > malformed.json
code=0
mcmimo symrate --config malformed.json > out.txt 2> err.txt || code=$?
test "$code" -eq 2
test ! -s out.txt
test "$(wc -l < err.txt)" -eq 1
grep -q '^error: ' err.txt
# 256- and 512-cell K = 1 rings: the TIN region is one bound, so it
# must not wait for a solve of the whole network, and the SND solve
# is O(L^3) per state (the step's shell exits on a nonzero status,
# timeout's 124 included)
python -c "import json, math; [json.dump({'params': {'L': L, 'K': 1, 'M': 1e4, 'rho_u': 30.0, 'rho_p': 120.0}, 'layout': {'kind': 'explicit', 'bs_positions': bs, 'user_positions': [[[x + 200.0, y]] for x, y in bs]}}, open(f'ring{L}.json', 'w')) for L in (256, 512) for r in [400 / math.sin(math.pi / L)] for bs in [[[r * math.cos(2 * math.pi * l / L), r * math.sin(2 * math.pi * l / L)] for l in range(L)]]]"
timeout 30 mcmimo region --config ring256.json --scheme tin --bs 7 > region.csv
test "$(head -n 1 region.csv)" = "scheme,bs,pilot,omega_mask,theta_mask,bound"
test "$(wc -l < region.csv)" -eq 2
timeout 30 mcmimo symrate --config ring512.json --scheme snd > symrate512.csv
test "$(head -n 1 symrate512.csv)" = "scope,rate,theta_mask,omega_mask"
test "$(wc -l < symrate512.csv)" -eq 514
# the installed script's sweeps, along M and along a geometry
# axis, match their golden CSVs byte for byte
data="$GITHUB_WORKSPACE"/tests/data
mcmimo sweep --preset two-cell-scenario-a --axis M --grid 1e3:1e7:25:log > sweep-m.csv
cmp sweep-m.csv "$data"/two-cell-scenario-a.sweep.csv
mcmimo sweep --preset two-cell-scenario-b --axis radius_x --grid 130:240:25 > sweep-radius.csv
cmp sweep-radius.csv "$data"/two-cell-scenario-b.sweep-radius_x.csv
# and its witness masks: a 6-cell ring's SD, S-SND and SND rates
for scheme in sd ssnd snd; do
  mcmimo symrate --config "$data"/ring6.json --scheme "$scheme"
done > ring6.csv
cmp ring6.csv "$data"/ring6.symrate.csv
# and a sweep long enough to cross both chunk loops: the sweep's
# chunks of values and, within them, the kernel's chunks of rows
timeout 30 mcmimo sweep --config "$data"/ring6.json --axis M --grid 1e2:1e7:10000:log > sweep-ring6.csv
test "$(grep -c '^M,' sweep-ring6.csv)" -eq 10000
# and its SND region, in nats
mcmimo region --preset three-cell-theta --scheme snd --bs 1 --unit nats > region-nats.csv
cmp region-nats.csv "$data"/three-cell-theta.region-nats.csv
# and its Monte Carlo runs, under the runner's BLAS kernel, under an
# SSE one, and with numpy held to SSE features (no fused
# multiply-add): the sampler's bytes depend on neither.  L = 3 is
# the first cell count at which a batch's sums have more than one
# order to add in.
sse="SSE SSE2 SSE3 SSSE3 SSE41 POPCNT SSE42"
mcmimo montecarlo --cells 2 --users 2 --m 64 --trials 2100 --seed 1 > mc.csv
cmp mc.csv "$data"/montecarlo-two-cell.csv
OPENBLAS_CORETYPE=Prescott mcmimo montecarlo --cells 2 --users 2 --m 64 --trials 2100 --seed 1 > mc-sse.csv
cmp mc-sse.csv "$data"/montecarlo-two-cell.csv
mcmimo montecarlo --config "$data"/three-cell-mc.json --m 128 --bs 2 --omega 0,2 > mc3.csv
cmp mc3.csv "$data"/montecarlo-three-cell.csv
OPENBLAS_CORETYPE=Prescott mcmimo montecarlo --config "$data"/three-cell-mc.json --m 128 --bs 2 --omega 0,2 > mc3-sse.csv
cmp mc3-sse.csv "$data"/montecarlo-three-cell.csv
NPY_ENABLE_CPU_FEATURES="$sse" mcmimo montecarlo --cells 2 --users 2 --m 64 --trials 2100 --seed 1 > mc-nofma.csv
cmp mc-nofma.csv "$data"/montecarlo-two-cell.csv
NPY_ENABLE_CPU_FEATURES="$sse" mcmimo montecarlo --config "$data"/three-cell-mc.json --m 128 --bs 2 --omega 0,2 > mc3-nofma.csv
cmp mc3-nofma.csv "$data"/montecarlo-three-cell.csv
NPY_ENABLE_CPU_FEATURES="$sse" mcmimo montecarlo --cells 2 --users 1 --m 1024 --trials 1100 > mc1-nofma.csv
cmp mc1-nofma.csv "$data"/montecarlo-two-cell-one-user.csv
