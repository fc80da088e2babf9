#!/bin/sh
# The CLI, end to end, on the files in demos/data. Some commands exit
# with status 1 by design: a FAIL line for a property is a finding,
# not a crash. Any other nonzero status is an error, and the script
# then exits with the last such status.
set -u
cd "$(dirname "$0")/.."

# python3 -m also exits 1 when it cannot import the package, so check
# the import once before anything runs.
python3 -c "import contactalg.cli" || exit 2

status=0
run() {
    echo
    echo "\$ contactalg $*"
    python3 -m contactalg.cli "$@"
    code=$?
    echo "(exit $code)"
    if [ "$code" -gt 1 ]; then
        status=$code
    fi
}

run check demos/data/overlap3.alg
run check demos/data/six_cycle.alg --close rs
run dim demos/data/six_cycle.alg --close rs --max-n 1
run dim demos/data/six_cycle.alg --close rs --scan --subset "{0};{1};{2};{3};{4};{5};{0,1};{1,2};{2,3};{3,4};{4,5};{0,5};{2,3,4,5};{0,3,4,5};{0,1,4,5};{0,1,2,5};{0,1,2,3};{1,2,3,4}"
run weight demos/data/six_cycle.alg --close rs
run piweight demos/data/six_cycle.alg
run product demos/data/overlap3.alg demos/data/overlap3.alg
run relative demos/data/six_cycle.alg --close rs --at "{0,1,2}"
run space rc demos/data/sierpinski.space
run space dim demos/data/sierpinski.space
run space lambda-t demos/data/discrete3.space demos/data/collapse_to_sierpinski.map
run crosscheck demos/data/discrete3.space
run search --atoms 2
exit "$status"
