(* The benchmark's host-speed probe.  It links nothing of the verifier,
   so no change to the program under test can change its time.

   run.py runs one calib process next to every repetition (and every
   stream cycle) and divides the measured times by its time, which
   cancels the drift in the speed of a shared host.  The work resembles
   the verifier's: it builds, rewrites and hash-conses formula-like
   trees, keeps a few megabytes live in maps and tables so the major GC
   has work, and sorts lists.  It is fixed: the same terms on every run.

     calib      prints the wall time of one round of the work, in s *)

type t = Leaf of int | Node of string * t * t

module IM = Map.Make (Int)

let ops = [| "and"; "or"; "implies"; "iff" |]

let rec build rng d =
  if d = 0 then Leaf (Random.State.int rng 1000)
  else
    Node (ops.(Random.State.int rng 4), build rng (d - 1), build rng (d - 1))

let rec size = function Leaf _ -> 1 | Node (_, a, b) -> 1 + size a + size b

let rec rewrite k = function
  | Leaf n -> Leaf ((n * 31 + k) land 1023)
  | Node (o, a, b) -> Node (o, rewrite k b, rewrite k a)

let work () =
  let rng = Random.State.make [| 42 |] in
  let consed = Hashtbl.create 4096 in
  let sizes = ref IM.empty in
  let acc = ref 0 in
  for i = 1 to 1200 do
    let t = rewrite i (build rng 10) in
    let h = Hashtbl.hash t in
    if not (Hashtbl.mem consed h) then Hashtbl.add consed h t;
    sizes := IM.add (h + i) (size t) !sizes;
    let l = List.init 2000 (fun _ -> Random.State.int rng 100_000) in
    acc := !acc + List.hd (List.sort compare l)
  done;
  !acc + Hashtbl.length consed + IM.cardinal !sizes

let () =
  let t0 = Unix.gettimeofday () in
  let r = work () in
  let dt = Unix.gettimeofday () -. t0 in
  (* the result keeps the work from being optimised away *)
  if r = 0 then exit 1;
  Printf.printf "%.9f\n" dt
