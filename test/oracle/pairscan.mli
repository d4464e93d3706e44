(** The per-location pair scan: the reference race engine.

    For every location, every (writer, toucher) pair of distinct events
    on different processors is tested once with {!Racedetect.Hb.ordered}
    — quadratic in a location's sharing, but with no epoch state at all.
    The differential properties hold {!Racedetect.Race.find_all} to its
    answers, and the [races-vclock] benchmark rows time it. *)

val races : Racedetect.Hb.t -> Racedetect.Race.t list
(** Every race, sorted by [(a, b)]; the same list {!Racedetect.Race.find_all}
    returns. *)
