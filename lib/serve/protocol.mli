(** Wire protocol of the [racedet serve] daemon.

    Everything on the wire is line-oriented plain text except the trace
    bytes themselves, which are the unmodified v1/v2 codec stream.  A
    connection opens with one {e hello} line, gets one {e ack} line
    back, then (for sessions) the client streams trace bytes and
    half-closes its writing side; the server answers with one
    {e verdict} line, a [report <len>] line, [len] bytes of report text
    (byte-identical to [racedet analyze --salvage] on the same input),
    and closes.

    {v
    client:  weakrace-serve 1 session build-42\n
    server:  ok 0\n
    client:  <trace bytes ...> (shutdown write)
    server:  verdict races 2 events 400\n
             report 1234\n
             <1234 bytes>
    v}

    For a resumed session the ack carries the byte offset already
    consumed at the last checkpoint; the client must resend the trace
    from that offset. *)

val version : int
(** Protocol version spoken by this build (in the hello line). *)

type hello =
  | Session of string  (** open (or resume) the named analysis session *)
  | Metrics            (** dump the plaintext metrics snapshot and close *)
  | Stop               (** ask the daemon to shut down gracefully *)

val session_id_char : char -> bool
(** [A-Za-z0-9._-]: the characters a session id may use. *)

val valid_session_id : string -> bool
(** 1–64 {!session_id_char}s — safe as a checkpoint file name and
    unambiguous on the wire. *)

val hello_line : hello -> string
val parse_hello : string -> (hello, string) result

(** How a session ended, as encoded in the verdict line.  [Analyzed]
    carries the full analysis verdict; the others are server-side
    terminations that never certify anything. *)
type outcome =
  | Analyzed of Racedetect.Postmortem.verdict * int  (** verdict, events *)
  | Shed of string     (** load-shedding; reason token *)
  | Aborted of string  (** timeout/shutdown; reason token *)
  | Failed of string   (** analysis or protocol error; message *)

val verdict_line : outcome -> string
(** The one-line machine-readable summary, without trailing newline:
    [verdict race-free events N] / [verdict races K events N] /
    [verdict degraded races K events N] / [verdict shed reason W] /
    [verdict aborted reason W] / [verdict error reason W]. *)

type outcome_class =
  | Race_free
  | Races of int
  | Degraded of int
  | Shed_c
  | Aborted_c
  | Error_c

val parse_verdict_line : string -> (outcome_class * int option * string option, string) result
(** Parse back what {!verdict_line} printed: class, event count (for
    analyzed classes), reason token. *)

val exit_code : outcome_class -> int
(** The [racedet client] exit-code convention, an extension of the
    analyze one: 0 race-free, 2 races, 3 degraded, 4 shed, 5 aborted,
    1 error. *)

val render_verdict_report : Racedetect.Postmortem.verdict -> string
(** Exactly the bytes [racedet analyze] prints for this verdict: the
    (possibly degraded) report and, for lossy verdicts, the loss
    summary.  Shared by the daemon and the CLI so a served session and
    a local analysis of the same trace compare byte-for-byte. *)

val outcome_report : outcome -> string
(** The report body sent after the verdict line: the rendered analysis
    for [Analyzed], a one-line explanation otherwise. *)
