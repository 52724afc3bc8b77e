#!/usr/bin/env bash
# Kill-matrix harness for the crash-consistency contracts.
#
# Runs a workload straight through to produce reference artifacts,
# then re-runs it under a matrix of randomized SIGKILLs — each kill
# lands at a random point mid-run and is followed by a resume — and
# finally checks that the resumed artifacts are bit-for-bit identical
# to the uninterrupted run's, and that the relevant lints pass them
# clean. Two modes share the harness:
#
#   campaign    the injection-campaign checkpoint journal
#               (DESIGN.md section 10): compares the journal itself.
#   serve       the analysis service (DESIGN.md section 15): compares
#               the merged manifest and the queue journal, resuming at
#               a different worker count than the kills ran with.
#   stratified  the stratified campaign (DESIGN.md section 16): the
#               CLI v2 checkpoint journal under kills, then a
#               stratified serve job whose merged manifest (combined
#               estimator included) must come out byte-identical
#               across kills, resume, and a different worker count.
#
# Usage: ci_kill_matrix.sh <build-dir> campaign|serve|stratified [kills]
set -euo pipefail

usage="usage: ci_kill_matrix.sh <build-dir> campaign|serve|stratified [kills]"
build="${1:?$usage}"
mode="${2:?$usage}"
kills="${3:-3}"

mbavf="$build/tools/mbavf"
serve="$build/tools/mbavf_serve"
lint="$build/tools/mbavf_lint"

workload="${MBAVF_SMOKE_WORKLOAD:-recursive_gaussian}"
# Memory trials, and enough of them, so that kills land mid-run: a
# register campaign settles about 99% of its trials from the
# golden-run liveness map and ends in well under a second.
trials="${MBAVF_SMOKE_TRIALS:-16000}"
seed="${MBAVF_SMOKE_SEED:-5}"
# Upper bound (in deciseconds) on the random delay before each kill.
kill_spread="${MBAVF_SMOKE_KILL_SPREAD:-30}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# Sleep a random duration in (0, kill_spread] deciseconds.
random_nap() {
    local ds=$(( (RANDOM % kill_spread) + 1 ))
    sleep "$(printf '%d.%d' $((ds / 10)) $((ds % 10)))"
}

# kill_matrix <launch-fn> <resume-fn> <progress-fn>
# Launches via <launch-fn> (first round) / <resume-fn> (later
# rounds), kills at a random point, and reports progress after each
# round. A round that finishes before its kill lands ends the matrix
# (everything is already done); at least one kill must land mid-run
# or the crash-consistency check below would be vacuous.
# The launch/resume functions must exec the binary so $! is the
# process under test, not a wrapper subshell — otherwise the SIGKILL
# hits the wrapper and leaves an orphan racing the resume.
kill_matrix() {
    local launch="$1" resume="$2" progress="$3"
    local round landed=0
    for round in $(seq 1 "$kills"); do
        if [ "$round" -eq 1 ]; then "$launch" & else "$resume" & fi
        local pid=$!
        random_nap
        if ! kill -KILL "$pid" 2>/dev/null; then
            wait "$pid" || true
            echo "round $round: finished before the kill landed"
            break
        fi
        wait "$pid" || true
        landed=$((landed + 1))
        echo "round $round: killed mid-run ($("$progress") done)"
    done
    if [ "$landed" -eq 0 ]; then
        echo "error: no kill landed mid-run; the resume check is" \
             "vacuous — raise MBAVF_SMOKE_TRIALS" >&2
        return 1
    fi
    return 0
}

case "$mode" in
campaign)
    run_campaign() {
        "$mbavf" --campaign --workload="$workload" \
            --trials="$trials" --seed="$seed" --kind=memory \
            --checkpoint="$1" --checkpoint-every=64 \
            --threads="$2" "${@:3}"
    }

    echo "== campaign straight run (2 threads) =="
    run_campaign "$work/straight.journal" 2

    echo "== campaign kill matrix ($kills kills) =="
    launch() {
        exec "$mbavf" --campaign --workload="$workload" \
            --trials="$trials" --seed="$seed" --kind=memory \
            --checkpoint="$work/resumed.journal" \
            --checkpoint-every=64 --threads=2
    }
    resume() {
        exec "$mbavf" --campaign --workload="$workload" \
            --trials="$trials" --seed="$seed" --kind=memory \
            --checkpoint="$work/resumed.journal" \
            --checkpoint-every=64 --threads=2 --resume
    }
    progress() {
        local n
        n=$(grep -cv '^mbavf-journal' "$work/resumed.journal" \
                2>/dev/null) || true
        echo "${n:-0}"
    }
    kill_matrix launch resume progress

    echo "== final resume (8 threads) =="
    run_campaign "$work/resumed.journal" 8 --resume

    echo "== compare journals =="
    cmp "$work/straight.journal" "$work/resumed.journal"

    echo "== lint resumed journal =="
    "$lint" --journal="$work/resumed.journal"
    ;;

serve)
    # A spec slow enough that kills land mid-run: the campaign
    # shards dominate the wall clock.
    spec="${MBAVF_SMOKE_SPEC:-$work/kill_matrix_spec.json}"
    if [ ! -f "$spec" ]; then
        cat > "$spec" <<SPEC
{
  "jobs": [
    {"type": "sweep", "workload": "histogram", "modes": 4},
    {"type": "campaign", "workload": "$workload", "kind": "memory",
     "trials": $trials, "seed": $seed, "shard_trials": 500}
  ]
}
SPEC
    fi

    run_serve() {
        "$serve" --spec="$spec" --state="$1" --manifest="$2" \
            --workers="$3" --threads=2 "${@:4}"
    }

    echo "== serve straight run (2 workers) =="
    run_serve "$work/straight" "$work/straight.json" 2

    echo "== serve kill matrix ($kills kills) =="
    launch() {
        exec "$serve" --spec="$spec" --state="$work/resumed" \
            --manifest="$work/resumed.json" --workers=2 --threads=2
    }
    resume() {
        exec "$serve" --spec="$spec" --state="$work/resumed" \
            --manifest="$work/resumed.json" --workers=2 --threads=2 \
            --resume
    }
    progress() {
        local n
        n=$(grep -c ' done ' "$work/resumed/queue.journal" \
                2>/dev/null) || true
        echo "${n:-0}"
    }
    kill_matrix launch resume progress
    # Kills can orphan in-flight shard workers; let them drain so
    # they cannot race the final resume's result files.
    sleep 2

    echo "== final resume (4 workers) =="
    run_serve "$work/resumed" "$work/resumed.json" 4 --resume

    echo "== compare manifests =="
    cmp "$work/straight.json" "$work/resumed.json"

    echo "== compare queue journals =="
    cmp "$work/straight/queue.journal" "$work/resumed/queue.journal"

    echo "== lint resumed queue journal =="
    "$lint" --queue-journal="$work/resumed/queue.journal"
    ;;

stratified)
    budget="${MBAVF_SMOKE_BUDGET:-$trials}"

    run_stratified() {
        "$mbavf" --campaign --stratify --workload="$workload" \
            --budget="$budget" --seed="$seed" \
            --checkpoint="$1" --checkpoint-every=64 \
            --threads="$2" "${@:3}"
    }

    echo "== stratified straight run (2 threads) =="
    run_stratified "$work/straight.journal" 2

    echo "== stratified kill matrix ($kills kills) =="
    launch() {
        exec "$mbavf" --campaign --stratify \
            --workload="$workload" --budget="$budget" \
            --seed="$seed" --checkpoint="$work/resumed.journal" \
            --checkpoint-every=64 --threads=2
    }
    resume() {
        exec "$mbavf" --campaign --stratify \
            --workload="$workload" --budget="$budget" \
            --seed="$seed" --checkpoint="$work/resumed.journal" \
            --checkpoint-every=64 --threads=2 --resume
    }
    progress() {
        local n
        n=$(grep -cv '^mbavf-journal' "$work/resumed.journal" \
                2>/dev/null) || true
        echo "${n:-0}"
    }
    kill_matrix launch resume progress

    echo "== final resume (8 threads) =="
    run_stratified "$work/resumed.journal" 8 --resume

    echo "== compare journals =="
    cmp "$work/straight.journal" "$work/resumed.journal"

    echo "== lint resumed journal =="
    "$lint" --journal="$work/resumed.journal"

    # The serve side: a stratified campaign job sharded over the
    # pick sequence must merge to a byte-identical manifest across
    # kills, resume, and a different worker count.
    spec="$work/stratified_spec.json"
    cat > "$spec" <<SPEC
{
  "jobs": [
    {"type": "campaign", "workload": "$workload",
     "trials": 100, "seed": $seed, "stratify": true,
     "budget": $budget, "shard_trials": 500}
  ]
}
SPEC

    run_serve() {
        "$serve" --spec="$spec" --state="$1" --manifest="$2" \
            --workers="$3" --threads=2 "${@:4}"
    }

    echo "== stratified serve straight run (2 workers) =="
    run_serve "$work/sstraight" "$work/sstraight.json" 2

    echo "== stratified serve kill matrix ($kills kills) =="
    launch() {
        exec "$serve" --spec="$spec" --state="$work/sresumed" \
            --manifest="$work/sresumed.json" --workers=2 --threads=2
    }
    resume() {
        exec "$serve" --spec="$spec" --state="$work/sresumed" \
            --manifest="$work/sresumed.json" --workers=2 --threads=2 \
            --resume
    }
    progress() {
        local n
        n=$(grep -c ' done ' "$work/sresumed/queue.journal" \
                2>/dev/null) || true
        echo "${n:-0}"
    }
    kill_matrix launch resume progress
    sleep 2

    echo "== final resume (4 workers) =="
    run_serve "$work/sresumed" "$work/sresumed.json" 4 --resume

    echo "== compare merged manifests =="
    cmp "$work/sstraight.json" "$work/sresumed.json"

    echo "== compare queue journals =="
    cmp "$work/sstraight/queue.journal" \
        "$work/sresumed/queue.journal"

    echo "== lint resumed queue journal =="
    "$lint" --queue-journal="$work/sresumed/queue.journal"
    ;;

*)
    echo "error: unknown mode '$mode' (campaign|serve|stratified)" >&2
    exit 2
    ;;
esac

echo "kill matrix ($mode): OK"
