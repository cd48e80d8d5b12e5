//! Civil (Gregorian) time implemented from scratch.
//!
//! Data streams in Icewafl carry an *event time* — the paper's replicated
//! timestamp `τ` — and several temporal conditions need calendar
//! arithmetic: "hour of the day" for the sinusoidal error pattern of
//! experiment 3.1.1, "after 2016-02-27" for the software-update scenario,
//! and hour differences for equations (3) and (4).
//!
//! Timestamps are milliseconds since the Unix epoch (UTC, no leap
//! seconds), the same convention Flink uses for event time. The
//! date↔day-number conversions follow the classic public-domain civil
//! calendar algorithms (Howard Hinnant's `days_from_civil` /
//! `civil_from_days`).

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Milliseconds in one second.
pub const MILLIS_PER_SECOND: i64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MINUTE: i64 = 60 * MILLIS_PER_SECOND;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: i64 = 60 * MILLIS_PER_MINUTE;
/// Milliseconds in one day.
pub const MILLIS_PER_DAY: i64 = 24 * MILLIS_PER_HOUR;

/// A point in time: milliseconds since `1970-01-01 00:00:00` UTC.
///
/// `Timestamp` is the event-time currency of the whole workspace — tuple
/// timestamps, watermarks, and the replicated pollution-process time `τ`
/// all use it.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Timestamp(pub i64);

impl Timestamp {
    /// The smallest representable timestamp (used as the initial watermark).
    pub const MIN: Timestamp = Timestamp(i64::MIN);
    /// The largest representable timestamp (used as the end-of-stream
    /// watermark).
    pub const MAX: Timestamp = Timestamp(i64::MAX);

    /// Constructs a timestamp from raw epoch milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms)
    }

    /// The raw epoch-millisecond value.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// Builds a timestamp from a civil date and time-of-day (UTC).
    ///
    /// Returns an error if any component is out of range (months 1–12,
    /// days valid for the month, hours 0–23, minutes/seconds 0–59).
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Result<Self> {
        DateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            milli: 0,
        }
        .to_timestamp()
    }

    /// Builds a timestamp for midnight of the given civil date (UTC).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Result<Self> {
        Self::from_ymd_hms(year, month, day, 0, 0, 0)
    }

    /// Decomposes the timestamp into its civil components.
    pub fn to_datetime(self) -> DateTime {
        let days = self.0.div_euclid(MILLIS_PER_DAY);
        let ms_of_day = self.0.rem_euclid(MILLIS_PER_DAY);
        let (year, month, day) = civil_from_days(days);
        let hour = (ms_of_day / MILLIS_PER_HOUR) as u32;
        let minute = ((ms_of_day % MILLIS_PER_HOUR) / MILLIS_PER_MINUTE) as u32;
        let second = ((ms_of_day % MILLIS_PER_MINUTE) / MILLIS_PER_SECOND) as u32;
        let milli = (ms_of_day % MILLIS_PER_SECOND) as u32;
        DateTime {
            year,
            month,
            day,
            hour,
            minute,
            second,
            milli,
        }
    }

    /// The hour of the day in `0..24`.
    pub fn hour_of_day(self) -> u32 {
        (self.0.rem_euclid(MILLIS_PER_DAY) / MILLIS_PER_HOUR) as u32
    }

    /// The time of day as a fractional hour in `[0, 24)`.
    ///
    /// This is the `t` of the paper's sinusoidal error probability
    /// `p(t) = 0.25·cos(π/12·t) + 0.25` (§3.1.1).
    pub fn fractional_hour_of_day(self) -> f64 {
        self.0.rem_euclid(MILLIS_PER_DAY) as f64 / MILLIS_PER_HOUR as f64
    }

    /// The minute within the hour in `0..60`.
    pub fn minute_of_hour(self) -> u32 {
        (self.0.rem_euclid(MILLIS_PER_HOUR) / MILLIS_PER_MINUTE) as u32
    }

    /// The month of the year in `1..=12`.
    pub fn month(self) -> u32 {
        self.to_datetime().month
    }

    /// The difference `self - earlier` expressed in (fractional) hours.
    ///
    /// This is the paper's `hours(τ_i − τ_0)` helper from equations (3)
    /// and (4).
    pub fn hours_since(self, earlier: Timestamp) -> f64 {
        (self.0 - earlier.0) as f64 / MILLIS_PER_HOUR as f64
    }

    /// Midnight of the day this timestamp falls on.
    pub fn floor_to_day(self) -> Timestamp {
        Timestamp(self.0.div_euclid(MILLIS_PER_DAY) * MILLIS_PER_DAY)
    }

    /// Start of the hour this timestamp falls in.
    pub fn floor_to_hour(self) -> Timestamp {
        Timestamp(self.0.div_euclid(MILLIS_PER_HOUR) * MILLIS_PER_HOUR)
    }

    /// Saturating addition of a duration (used by delay polluters so an
    /// extreme configuration cannot overflow).
    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.to_datetime().fmt(f)
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: Duration) -> Timestamp {
        Timestamp(self.0 - rhs.0)
    }
}

impl SubAssign<Duration> for Timestamp {
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 -= rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, rhs: Timestamp) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A signed span of time in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Duration(pub i64);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// A duration of `ms` milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Duration(ms)
    }

    /// A duration of `s` seconds.
    pub const fn from_seconds(s: i64) -> Self {
        Duration(s * MILLIS_PER_SECOND)
    }

    /// A duration of `m` minutes.
    pub const fn from_minutes(m: i64) -> Self {
        Duration(m * MILLIS_PER_MINUTE)
    }

    /// A duration of `h` hours.
    pub const fn from_hours(h: i64) -> Self {
        Duration(h * MILLIS_PER_HOUR)
    }

    /// A duration of `d` days.
    pub const fn from_days(d: i64) -> Self {
        Duration(d * MILLIS_PER_DAY)
    }

    /// The raw millisecond count.
    pub const fn millis(self) -> i64 {
        self.0
    }

    /// The duration as fractional hours.
    pub fn as_hours(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

/// A civil (proleptic Gregorian, UTC) date and time, decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DateTime {
    /// Calendar year (may be negative for BCE in the proleptic calendar).
    pub year: i32,
    /// Month, `1..=12`.
    pub month: u32,
    /// Day of month, `1..=31`.
    pub day: u32,
    /// Hour of day, `0..24`.
    pub hour: u32,
    /// Minute, `0..60`.
    pub minute: u32,
    /// Second, `0..60`.
    pub second: u32,
    /// Millisecond, `0..1000`.
    pub milli: u32,
}

impl DateTime {
    /// Converts the civil components back to an epoch timestamp,
    /// validating ranges.
    pub fn to_timestamp(self) -> Result<Timestamp> {
        if self.month == 0 || self.month > 12 {
            return Err(Error::config(format_args!(
                "month {} out of range",
                self.month
            )));
        }
        let dim = days_in_month(self.year, self.month);
        if self.day == 0 || self.day > dim {
            return Err(Error::config(format_args!(
                "day {} out of range for {}-{:02}",
                self.day, self.year, self.month
            )));
        }
        if self.hour > 23 || self.minute > 59 || self.second > 59 || self.milli > 999 {
            return Err(Error::config(format_args!(
                "time {:02}:{:02}:{:02}.{:03} out of range",
                self.hour, self.minute, self.second, self.milli
            )));
        }
        let days = days_from_civil(self.year, self.month, self.day);
        let ms = days * MILLIS_PER_DAY
            + self.hour as i64 * MILLIS_PER_HOUR
            + self.minute as i64 * MILLIS_PER_MINUTE
            + self.second as i64 * MILLIS_PER_SECOND
            + self.milli as i64;
        Ok(Timestamp(ms))
    }
}

/// Writes the last `dst.len()` decimal digits of `v`, zero-padded.
fn put_digits(dst: &mut [u8], mut v: u32) {
    for d in dst.iter_mut().rev() {
        *d = b'0' + (v % 10) as u8;
        v /= 10;
    }
}

impl fmt::Display for DateTime {
    /// `YYYY-MM-DD hh:mm:ss`, plus `.mmm` when the milliseconds are not
    /// zero. Components that fit their widths (every four-digit year) are
    /// filled digit by digit into one buffer and written once: the CSV
    /// writer and the log format a timestamp per record.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fits = (0..=9999).contains(&self.year)
            && [self.month, self.day, self.hour, self.minute, self.second]
                .iter()
                .all(|&v| v < 100)
            && self.milli < 1000;
        if !fits {
            write!(
                f,
                "{:04}-{:02}-{:02} {:02}:{:02}:{:02}",
                self.year, self.month, self.day, self.hour, self.minute, self.second
            )?;
            if self.milli != 0 {
                write!(f, ".{:03}", self.milli)?;
            }
            return Ok(());
        }
        let mut b = *b"0000-00-00 00:00:00.000";
        put_digits(&mut b[0..4], self.year as u32);
        put_digits(&mut b[5..7], self.month);
        put_digits(&mut b[8..10], self.day);
        put_digits(&mut b[11..13], self.hour);
        put_digits(&mut b[14..16], self.minute);
        put_digits(&mut b[17..19], self.second);
        let len = if self.milli == 0 {
            19
        } else {
            put_digits(&mut b[20..23], self.milli);
            23
        };
        f.write_str(std::str::from_utf8(&b[..len]).expect("ASCII digits and separators"))
    }
}

/// Whether `year` is a leap year in the proleptic Gregorian calendar.
pub fn is_leap_year(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// The number of days in `month` of `year`.
pub fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 if is_leap_year(year) => 29,
        2 => 28,
        _ => 0,
    }
}

/// Days since the Unix epoch for a civil date (Hinnant's
/// `days_from_civil`).
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let mp = i64::from((m + 9) % 12); // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Civil date for a day count since the Unix epoch (Hinnant's
/// `civil_from_days`).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// The components of the form every CSV this crate writes uses,
/// `YYYY-MM-DD HH:MM:SS` (or with a `T` separator), read digit by digit;
/// `None` for any other shape, which the general parser then handles.
/// Ranges are left to [`DateTime::to_timestamp`], as on the general
/// path.
fn parse_canonical(s: &str) -> Option<DateTime> {
    let b: &[u8; 19] = s.as_bytes().try_into().ok()?;
    let shape_ok = b[4] == b'-'
        && b[7] == b'-'
        && matches!(b[10], b' ' | b'T')
        && b[13] == b':'
        && b[16] == b':';
    let num = |from: usize, to: usize| -> Option<u32> {
        b[from..to].iter().try_fold(0u32, |acc, &d| {
            d.is_ascii_digit().then(|| acc * 10 + u32::from(d - b'0'))
        })
    };
    if !shape_ok {
        return None;
    }
    Some(DateTime {
        year: num(0, 4)? as i32,
        month: num(5, 7)?,
        day: num(8, 10)?,
        hour: num(11, 13)?,
        minute: num(14, 16)?,
        second: num(17, 19)?,
        milli: 0,
    })
}

/// Parses `"YYYY-MM-DD"`, `"YYYY-MM-DD HH:MM"`, `"YYYY-MM-DD HH:MM:SS"` or
/// `"YYYY-MM-DD HH:MM:SS.mmm"` (a `T` separator is also accepted) into a
/// [`Timestamp`].
pub fn parse_timestamp(s: &str) -> Result<Timestamp> {
    let s = s.trim();
    if let Some(dt) = parse_canonical(s) {
        return dt.to_timestamp();
    }
    let bad = || Error::parse(s, "Timestamp");
    let (date, time) = match s.split_once([' ', 'T']) {
        Some((d, t)) => (d, Some(t)),
        None => (s, None),
    };
    let mut dp = date.splitn(3, '-');
    // A leading '-' would make the year field empty; negative years are not
    // accepted in the textual format.
    let year: i32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let month: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let day: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
    let (mut hour, mut minute, mut second, mut milli) = (0u32, 0u32, 0u32, 0u32);
    if let Some(t) = time {
        let (hms, frac) = match t.split_once('.') {
            Some((a, b)) => (a, Some(b)),
            None => (t, None),
        };
        let mut tp = hms.splitn(3, ':');
        hour = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        minute = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if let Some(sec) = tp.next() {
            second = sec.parse().map_err(|_| bad())?;
        }
        if let Some(frac) = frac {
            if frac.is_empty() || frac.len() > 3 || !frac.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let scale = 10u32.pow(3 - frac.len() as u32);
            milli = frac.parse::<u32>().map_err(|_| bad())? * scale;
        }
    }
    DateTime {
        year,
        month,
        day,
        hour,
        minute,
        second,
        milli,
    }
    .to_timestamp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_fast_path_agrees_with_the_general_parser() {
        for text in [
            "2013-03-01 00:00:00",
            "2016-02-29T23:59:59",
            "0001-01-01 00:00:00",
            "9999-12-31 23:59:59",
        ] {
            let fast = parse_canonical(text).expect("canonical shape");
            let general = parse_timestamp(&format!("{text}.000")).unwrap();
            assert_eq!(fast.to_timestamp().unwrap(), general, "{text}");
            assert_eq!(parse_timestamp(text).unwrap(), general, "{text}");
        }
        // Same shape, out-of-range fields: rejected like the general
        // path rejects them.
        for text in [
            "2013-13-01 00:00:00",
            "2015-02-29 00:00:00",
            "2013-03-01 24:00:00",
        ] {
            assert!(parse_timestamp(text).is_err(), "{text}");
        }
        // Other shapes fall through to the general parser.
        assert!(parse_canonical("2013-03-01 00:00").is_none());
        assert!(parse_canonical("2013-03-01 0a:00:00").is_none());
        assert_eq!(
            parse_timestamp("+013-03-01 00:00:00").unwrap(),
            parse_timestamp("0013-03-01 00:00:00").unwrap()
        );
    }

    #[test]
    fn epoch_is_zero() {
        assert_eq!(Timestamp::from_ymd(1970, 1, 1).unwrap(), Timestamp(0));
    }

    #[test]
    fn known_dates_round_trip() {
        // Reference values cross-checked against `date -u -d ... +%s`.
        let t = Timestamp::from_ymd_hms(2016, 2, 27, 0, 0, 0).unwrap();
        assert_eq!(t.millis(), 1_456_531_200_000);
        let t = Timestamp::from_ymd_hms(2013, 3, 1, 0, 0, 0).unwrap();
        assert_eq!(t.millis(), 1_362_096_000_000);
        let t = Timestamp::from_ymd_hms(2017, 2, 28, 23, 0, 0).unwrap();
        assert_eq!(t.millis(), 1_488_322_800_000);
    }

    #[test]
    fn decompose_known_date() {
        let dt = Timestamp(1_456_531_200_000).to_datetime();
        assert_eq!((dt.year, dt.month, dt.day), (2016, 2, 27));
        assert_eq!((dt.hour, dt.minute, dt.second), (0, 0, 0));
    }

    #[test]
    fn leap_years() {
        assert!(is_leap_year(2016));
        assert!(is_leap_year(2000));
        assert!(!is_leap_year(1900));
        assert!(!is_leap_year(2015));
        assert_eq!(days_in_month(2016, 2), 29);
        assert_eq!(days_in_month(2015, 2), 28);
        assert_eq!(days_in_month(2015, 4), 30);
    }

    #[test]
    fn leap_day_2016_exists() {
        let t = Timestamp::from_ymd(2016, 2, 29).unwrap();
        let dt = t.to_datetime();
        assert_eq!((dt.year, dt.month, dt.day), (2016, 2, 29));
        assert!(Timestamp::from_ymd(2015, 2, 29).is_err());
    }

    #[test]
    fn hour_of_day_and_fraction() {
        let t = Timestamp::from_ymd_hms(2016, 2, 26, 13, 30, 0).unwrap();
        assert_eq!(t.hour_of_day(), 13);
        assert!((t.fractional_hour_of_day() - 13.5).abs() < 1e-9);
        assert_eq!(t.minute_of_hour(), 30);
    }

    #[test]
    fn hour_of_day_pre_epoch() {
        // 1969-12-31 23:00 — rem_euclid must keep the hour positive.
        let t = Timestamp(-MILLIS_PER_HOUR);
        assert_eq!(t.hour_of_day(), 23);
    }

    #[test]
    fn hours_since() {
        let a = Timestamp::from_ymd_hms(2016, 2, 26, 0, 0, 0).unwrap();
        let b = Timestamp::from_ymd_hms(2016, 2, 27, 6, 30, 0).unwrap();
        assert!((b.hours_since(a) - 30.5).abs() < 1e-9);
        assert!((a.hours_since(b) + 30.5).abs() < 1e-9);
    }

    #[test]
    fn floor_helpers() {
        let t = Timestamp::from_ymd_hms(2016, 2, 26, 13, 45, 12).unwrap();
        assert_eq!(t.floor_to_hour().to_datetime().minute, 0);
        assert_eq!(t.floor_to_day().to_datetime().hour, 0);
        assert_eq!(t.floor_to_day().to_datetime().day, 26);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_ymd(2016, 2, 28).unwrap();
        let u = t + Duration::from_days(1);
        assert_eq!(u.to_datetime().day, 29); // leap day
        let v = u + Duration::from_days(1);
        assert_eq!((v.to_datetime().month, v.to_datetime().day), (3, 1));
        assert_eq!(v - t, Duration::from_days(2));
        assert_eq!((v - Duration::from_hours(48)), t);
    }

    #[test]
    fn saturating_add_caps() {
        assert_eq!(
            Timestamp::MAX.saturating_add(Duration::from_hours(1)),
            Timestamp::MAX
        );
    }

    #[test]
    fn parse_variants() {
        assert_eq!(
            parse_timestamp("2016-02-27").unwrap(),
            Timestamp::from_ymd(2016, 2, 27).unwrap()
        );
        assert_eq!(
            parse_timestamp("2016-02-27 13:05").unwrap(),
            Timestamp::from_ymd_hms(2016, 2, 27, 13, 5, 0).unwrap()
        );
        assert_eq!(
            parse_timestamp("2016-02-27T13:05:09").unwrap(),
            Timestamp::from_ymd_hms(2016, 2, 27, 13, 5, 9).unwrap()
        );
        assert_eq!(
            parse_timestamp("2016-02-27 13:05:09.250").unwrap().millis(),
            Timestamp::from_ymd_hms(2016, 2, 27, 13, 5, 9)
                .unwrap()
                .millis()
                + 250
        );
        // Short fraction is scaled: ".5" == 500 ms.
        assert_eq!(
            parse_timestamp("1970-01-01 00:00:00.5").unwrap(),
            Timestamp(500)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for s in [
            "",
            "2016",
            "2016-13-01",
            "2016-02-30",
            "2016-02-27 25:00",
            "abc",
            "2016-02-27 13:05:09.12345",
        ] {
            assert!(parse_timestamp(s).is_err(), "should reject {s:?}");
        }
    }

    #[test]
    fn display_round_trips() {
        let t = Timestamp::from_ymd_hms(2016, 2, 27, 13, 5, 9).unwrap();
        assert_eq!(t.to_string(), "2016-02-27 13:05:09");
        assert_eq!(parse_timestamp(&t.to_string()).unwrap(), t);
    }

    #[test]
    fn display_pads_every_component() {
        assert_eq!(Timestamp(0).to_string(), "1970-01-01 00:00:00");
        assert_eq!(Timestamp(-1).to_string(), "1969-12-31 23:59:59.999");
        assert_eq!(
            Timestamp(1_456_531_200_123).to_string(),
            "2016-02-27 00:00:00.123"
        );
        let dt = |year, milli| DateTime {
            year,
            month: 3,
            day: 4,
            hour: 5,
            minute: 6,
            second: 7,
            milli,
        };
        assert_eq!(dt(5, 7).to_string(), "0005-03-04 05:06:07.007");
        // Years outside four digits keep the general formatting.
        assert_eq!(dt(-1, 0).to_string(), "-001-03-04 05:06:07");
        assert_eq!(dt(10_000, 40).to_string(), "10000-03-04 05:06:07.040");
    }

    #[test]
    fn duration_constructors_consistent() {
        assert_eq!(Duration::from_days(1), Duration::from_hours(24));
        assert_eq!(Duration::from_hours(1), Duration::from_minutes(60));
        assert_eq!(Duration::from_minutes(1), Duration::from_seconds(60));
        assert_eq!(Duration::from_seconds(1), Duration::from_millis(1000));
        assert!((Duration::from_minutes(90).as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn month_accessor() {
        assert_eq!(Timestamp::from_ymd(2016, 7, 4).unwrap().month(), 7);
    }
}
