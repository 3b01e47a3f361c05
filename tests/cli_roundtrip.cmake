# Drives msrs_engine_cli end to end: generate -> corpus file -> solve.
# Checks generation determinism (two runs, byte-identical output), the
# corpus round-trip through `solve`, and that a bad spec is refused.
# Invoked by ctest with -DCLI=<binary> -DWORKDIR=<scratch dir>.
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND ${CLI} generate uniform:n=40,m=4,seed=9 satellite:n=30,m=5,seed=2
          --out=${WORKDIR}/corpus_a.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${CLI} generate uniform:n=40,m=4,seed=9 satellite:n=30,m=5,seed=2
          --out=${WORKDIR}/corpus_b.txt
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "second generate failed with exit code ${rc}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/corpus_a.txt ${WORKDIR}/corpus_b.txt
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "generate is not deterministic: corpora differ")
endif()

execute_process(
  COMMAND ${CLI} solve --file=${WORKDIR}/corpus_a.txt
  OUTPUT_VARIABLE out
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "solve failed with exit code ${rc}")
endif()
if(NOT out MATCHES "batch: 2 instances")
  message(FATAL_ERROR "solve did not report the 2 corpus instances:\n${out}")
endif()

execute_process(
  COMMAND ${CLI} generate no_such_family:n=5
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "generate accepted an unknown family")
endif()
if(NOT err MATCHES "unknown family 'no_such_family'")
  message(FATAL_ERROR "bad-spec error did not name the family:\n${err}")
endif()

execute_process(
  COMMAND ${CLI} sweep "families=uniform,unit;n=20;m=4;seeds=2"
  OUTPUT_VARIABLE sweep_a RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "sweep failed with exit code ${rc}")
endif()
execute_process(
  COMMAND ${CLI} sweep "families=uniform,unit;n=20;m=4;seeds=2" --threads=4
  OUTPUT_VARIABLE sweep_b RESULT_VARIABLE rc ERROR_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "threaded sweep failed with exit code ${rc}")
endif()
if(NOT sweep_a STREQUAL sweep_b)
  message(FATAL_ERROR "sweep report differs across thread counts")
endif()

# Integer flags refuse a sign, trailing bytes, a non-number and
# out-of-range values by name (exit 2) before anything starts: std::stoul
# used to read "-1" as ULONG_MAX, and std::stoi took "-5" and "5x". The
# shard count stops at 255, the recorder's one-byte shard field; the
# machine count runs from 1 to kMaxMachines (2^22).
foreach(bad "serve;--queue-depth=-1" "serve;--shards=-1" "serve;--shards=256"
            "serve;--max-conns=+5" "serve;--recorder-events=99999999999999999999"
            "drive;uniform:n=8,m=2;--emit=-;--conns=-1"
            "serve;--budget=-5" "solve;--family=uniform;--budget=5x"
            "solve;--family=uniform;--budget=abc"
            "solve;--family=uniform;--machines=0"
            "solve;--family=uniform;--machines=4194305"
            "solve;--family=uniform;--jobs=0" "solve;--family=uniform;--seeds=-1"
            "solve;--family=uniform;--repeat=+2" "generate;uniform;--count=-3")
  list(GET bad 0 command)
  list(SUBLIST bad 1 -1 flags)
  list(GET flags -1 flag)
  string(REGEX REPLACE "=.*" "" flag "${flag}")
  execute_process(
    COMMAND ${CLI} ${command} ${flags}
    INPUT_FILE /dev/null
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${command} ${flags} exited ${rc}, not 2:\n${err}")
  endif()
  if(NOT err MATCHES "${flag} needs an unsigned integer")
    message(FATAL_ERROR "${command} ${flags} did not name ${flag}:\n${err}")
  endif()
endforeach()
