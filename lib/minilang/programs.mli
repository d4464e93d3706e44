(** Stock programs: the paper's figures plus classic litmus tests.

    Location symbols follow the paper where applicable ([x], [y], [s],
    [Q], [QEmpty], [S]). *)

val fig1a : Ast.program
(** Figure 1a's program: P1 writes x then y; P2 reads y then x; no
    synchronization.  Not data-race-free: on weak hardware P2 may observe
    the new y but the old x, violating SC. *)

val fig1b : Ast.program
(** Figure 1b's program: P1 writes x, y and Unsets s; P2 acquires s with a
    spinning Test&Set, then reads y and x.  Data-race-free, so every model
    must make it appear sequentially consistent (reads return 1,1). *)

val queue_bug : ?region:int -> ?stale:int -> unit -> Ast.program
(** Figure 2a's program.  P1 enqueues the address of a work region
    ([region], paper value 100) and clears [QEmpty]; P2 dequeues and works
    on [addr .. addr+region); P3 independently works on region
    [0 .. region).  The Test&Set operations that should protect the queue
    were "omitted due to an oversight", so the program races on [Q] and
    [QEmpty]; on weak hardware P2 can dequeue the stale address [stale]
    (paper value 37) even though it saw [QEmpty = 0], making it trample
    P3's region — the paper's non-sequentially-consistent data races. *)

val dekker : Ast.program
(** Store-buffering litmus: P1 writes x, reads y; P2 writes y, reads x.
    Both may read 0 only on weak hardware. *)

val dekker_fenced : Ast.program
(** {!dekker} with a fence between each processor's store and load.  On
    fence-honouring hardware the (0,0) outcome disappears; the variants
    campaign uses it to expose [fence=nop] hardware.  Still racy — the
    x/y accesses remain unsynchronized data operations (fences record no
    operation and add no hb1 edges). *)

val read_own_write : Ast.program
(** One processor stores then reloads the same location.  Race-free; any
    variant whose read misses its own buffered write ([read=bypass])
    returns 0 and violates Condition 3.4 clause 1. *)

val mp_data_flag : Ast.program
(** Message passing with a {e data} flag — the classic bug this line of
    work targets: spinning on an ordinary load races with the flag write,
    so the payload read may be stale on weak hardware. *)

val mp_release_acquire : Ast.program
(** Message passing with release/acquire flag accesses.  Data-race-free
    (the flag race is sync–sync, which Definition 2.4 does not count as a
    data race). *)

val handoff_update : Ast.program
(** Release/acquire handoff where the consumer also {e writes} the
    payload.  Data-race-free, but the Eraser-style lockset baseline
    false-alarms on the consumer's write (no lock is ever held), while
    the static sync-pairing analysis proves the ordering. *)

val guarded_handoff : Ast.program
(** P0 stores a value and Unsets a flag; P1 Test&Sets the flag and reads
    the value only if it acquired.  Data-race-free without any spinning,
    so its SC executions can be enumerated exhaustively. *)

val unguarded_handoff : Ast.program
(** Same, but P1 reads unconditionally — the minimal racy program. *)

val critical_increment : who:string -> Ast.instr list
(** One Test&Set/Unset critical section on ["lock"] that increments
    ["counter"]; labels are prefixed with [who]. *)

val counter_locked : Ast.program
(** Two processors increment a shared counter inside Test&Set/Unset
    critical sections.  Data-race-free; the final counter is always 2. *)

val counter_racy : Ast.program
(** The same increments without the lock: lost updates and data races. *)

val disjoint : Ast.program
(** Two processors touching disjoint locations: race-free with no
    synchronization at all. *)

val peterson : Ast.program
(** Peterson's mutual-exclusion algorithm written, as it classically is,
    with ordinary loads and stores.  Correct under SC; on weak hardware
    the flag/turn handshake races and mutual exclusion can fail — the
    canonical algorithm this line of work warns about. *)

val lazy_init : Ast.program
(** Double-checked lazy initialization: both processors check [init]
    without synchronization, initialize under a Test&Set lock, then read
    the payload.  The unsynchronized fast path races; on weak hardware a
    processor can observe [init = 1] yet read a stale payload. *)

val barrier_phases : ?n_procs:int -> unit -> Ast.program
(** A two-phase computation separated by a correct barrier: arrivals are
    counted under a Test&Set lock and the last arriver opens a gate with
    [Unset], which the others await with acquire spins.  Data-race-free;
    phase-2 reads always observe phase-1 writes on every model. *)

val all : (string * Ast.program) list
(** Every stock program by name ([queue_bug] with default parameters). *)

val find : string -> Ast.program option
