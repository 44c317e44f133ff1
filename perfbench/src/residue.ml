(* Forensic check of the PD image: no erased subject's email may survive
   anywhere on the device.  One pass over [Block_device.snapshot]: every
   occurrence of the population's email domain is read back to the start
   of its local part, and each suffix of that run is looked up among the
   erased emails, so whatever byte precedes an email on the medium cannot
   hide it.  A window of neighbouring bytes catches emails that straddle
   two blocks. *)

let domain = "@example.test"

let email_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '.' || c = '-' || c = '_'

(* Erased emails found in [text] at an '@' whose offset lies in
   [lo, hi). *)
let scan_text erased text ~lo ~hi found =
  let n = String.length text and m = String.length domain in
  let rec next i =
    if i < hi then
      match String.index_from_opt text i '@' with
      | None -> ()
      | Some at when at >= hi -> ()
      | Some at ->
          if at + m <= n && String.sub text at m = domain then begin
            let start = ref at in
            while !start > 0 && email_char text.[!start - 1] do decr start done;
            for s = !start to at - 1 do
              let candidate = String.sub text s (at + m - s) in
              if Hashtbl.mem erased candidate then Hashtbl.replace found candidate ()
            done
          end;
          next (at + 1)
  in
  next lo

let window = 64

(* Erased emails present on the image (sorted), empty when clean. *)
let scan (image : string array) emails =
  let erased = Hashtbl.create (2 * List.length emails + 1) in
  List.iter (fun e -> Hashtbl.replace erased e ()) emails;
  let found = Hashtbl.create 8 in
  if Hashtbl.length erased > 0 then begin
    let blocks = Array.length image in
    let tail b =
      if b < 0 then ""
      else
        let s = image.(b) in
        let l = String.length s in
        String.sub s (max 0 (l - window)) (min l window)
    in
    let head b =
      if b >= blocks then ""
      else
        let s = image.(b) in
        String.sub s 0 (min (String.length s) window)
    in
    Array.iteri
      (fun b block ->
        if String.contains block '@' then begin
          let before = tail (b - 1) in
          let text = before ^ block ^ head (b + 1) in
          let lo = String.length before in
          scan_text erased text ~lo ~hi:(lo + String.length block) found
        end)
      image
  end;
  Hashtbl.fold (fun e () acc -> e :: acc) found [] |> List.sort compare
