# Sourced by the CI steps that run the console script.
# expect CODE ARGS...: run `wavefront ARGS...` with its stdout discarded, and
# fail the step unless it exits CODE.
expect() {
  local code=$1 rc=0
  shift
  wavefront "$@" > /dev/null || rc=$?
  if [ "$rc" -ne "$code" ]; then
    echo "wavefront $*: exit $rc, expected $code" >&2
    exit 1
  fi
}
# expected_code RUN: the exit code that models/expected.tsv gives RUN (a
# model's path under models/ without .json, a slash and a command), or 0 for
# a run it does not list.
expected_code() {
  awk -F '\t' -v run="$1" '!/^#/ && $1 "/" $2 == run { code = $3 } END { print code + 0 }' models/expected.tsv
}
