(* Helpers shared by the harness and the traced node mirrors: one clock,
   a growable int vector, quantiles, and /proc readers. *)

(* Monotonic nanoseconds (CLOCK_MONOTONIC). The clock is system-wide,
   so a timestamp taken inside a node mirror compares directly with one
   taken by the harness. *)
let now () = Int64.to_int (Monotonic_clock.now ())

let ns_of_s s = int_of_float (s *. 1e9)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }
  let length v = v.n
  let get v i = v.a.(i)
  let set v i x = v.a.(i) <- x

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1
end

(* Linear interpolation between closest ranks over a sorted array. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  quantile_sorted a q

let median xs = quantile xs 0.5

(* -- /proc -------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* On-CPU nanoseconds of every thread of [pid] (schedstat's first
   field); 0 once the process is gone. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | tids ->
      Array.fold_left
        (fun acc tid ->
          match read_file (Filename.concat dir (tid ^ "/schedstat")) with
          | exception Sys_error _ -> acc
          | s -> (
              match String.split_on_char ' ' s with
              | ns :: _ -> acc + Option.value (int_of_string_opt ns) ~default:0
              | [] -> acc))
        0 tids

(* Peak resident set (VmHWM) in KiB; 0 once the process is gone. *)
let vmhwm_kb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> 0
  | s ->
      String.split_on_char '\n' s
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:"VmHWM:" line then
               String.split_on_char ' ' line
               |> List.filter_map int_of_string_opt
               |> List.find_opt (fun _ -> true)
             else None)
      |> Option.value ~default:0

(* Distinct loopback ports that were free a moment ago. *)
let free_ports n =
  let probe () =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | Unix.ADDR_UNIX _ -> failwith "free_ports: not an inet socket")
  in
  let rec go acc =
    if List.length acc = n then List.rev acc
    else
      let p = probe () in
      go (if List.mem p acc then acc else p :: acc)
  in
  Array.of_list (go [])
